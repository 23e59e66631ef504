package load

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"diggsim/internal/obs"
)

// swarmStats accumulates the SSE population's outcome.
type swarmStats struct {
	connected atomic.Int64  // streams currently open
	peak      atomic.Int64  // high-water mark of open streams
	failures  atomic.Uint64 // connects that never reached an event
	events    atomic.Uint64 // event frames received across all streams
	lagEvents atomic.Uint64 // synthetic "lag" frames received
	dropped   atomic.Uint64 // events reported lost inside lag frames
}

// runSwarm holds size concurrent SSE subscriptions on GET /v1/stream
// open until ctx is cancelled, connecting at connectRate conn/s (with
// the scenario ramp) so the server sees a realistic join wave rather
// than a thundering herd. Each stream records intended-connect→first-
// event latency into hist — the swarm's coordinated-omission-safe
// "time to first byte of the feed" — then counts frames. Streams read
// through 4KB buffers: per-stream client memory is what bounds swarm
// size long before server fan-out does.
func runSwarm(ctx context.Context, baseURL string, size int, connectRate float64,
	ramp time.Duration, hist *obs.Histogram, st *swarmStats) {
	if size <= 0 {
		return
	}
	transport := &http.Transport{
		MaxIdleConns:        0,
		MaxConnsPerHost:     0, // one live conn per stream; never pool-capped
		DisableCompression:  true,
		MaxIdleConnsPerHost: 1,
	}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport} // no timeout: streams live for the run

	pacer := NewPacer(connectRate, ramp)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < size; i++ {
		intended := start.Add(pacer.At(uint64(i)))
		if wait := time.Until(intended); wait > 0 {
			select {
			case <-ctx.Done():
				wg.Wait()
				return
			case <-time.After(wait):
			}
		}
		wg.Add(1)
		go func(intended time.Time) {
			defer wg.Done()
			streamOne(ctx, client, baseURL, intended, hist, st)
		}(intended)
	}
	wg.Wait()
}

// streamOne runs a single SSE subscription until ctx is cancelled or
// the server closes the stream.
func streamOne(ctx context.Context, client *http.Client, baseURL string,
	intended time.Time, hist *obs.Histogram, st *swarmStats) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/stream", nil)
	if err != nil {
		st.failures.Add(1)
		return
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := client.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			st.failures.Add(1)
		}
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		st.failures.Add(1)
		return
	}
	n := st.connected.Add(1)
	defer st.connected.Add(-1)
	for {
		peak := st.peak.Load()
		if n <= peak || st.peak.CompareAndSwap(peak, n) {
			break
		}
	}

	first := true
	r := bufio.NewReaderSize(resp.Body, 4096)
	var eventType string
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			if ctx.Err() == nil && first {
				st.failures.Add(1)
			}
			return
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event:"):
			eventType = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			if first {
				hist.Observe(time.Since(intended))
				first = false
			}
			st.events.Add(1)
			if eventType == "lag" {
				st.lagEvents.Add(1)
				var dropped uint64
				if _, err := fmt.Sscanf(extractJSONField(line, "dropped"), "%d", &dropped); err == nil {
					st.dropped.Add(dropped)
				}
			}
		}
	}
}

// extractJSONField pulls a bare numeric field out of a one-line JSON
// object without a full decode — the swarm parses thousands of frames
// per second and only ever needs the lag count.
func extractJSONField(line, field string) string {
	key := `"` + field + `":`
	i := strings.Index(line, key)
	if i < 0 {
		return ""
	}
	rest := line[i+len(key):]
	end := strings.IndexAny(rest, ",}")
	if end < 0 {
		return ""
	}
	return strings.TrimSpace(rest[:end])
}
