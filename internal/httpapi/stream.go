package httpapi

// stream.go serves the live event feed and the live-metrics endpoint.
// GET /v1/stream is Server-Sent Events: one "event:"/"data:" frame per
// typed live.Event, with the bus sequence number as the SSE id so
// clients can detect gaps and resume. A reconnecting client sends
// Last-Event-ID and replay starts from the broadcast ring right after
// that sequence; events the ring has already overwritten reach the
// client as a synthetic "lag" event carrying the exact count. A slow
// client likewise loses oldest events rather than stalling the
// simulation.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"diggsim/internal/apiv1"
	"diggsim/internal/live"
	"diggsim/internal/obs"
)

// StatsResponse is the /v1/stats envelope: live simulation metrics
// when a live service is attached, HTTP request metrics when the
// metrics middleware is attached.
type StatsResponse struct {
	Live *live.Stats      `json:"live,omitempty"`
	HTTP *MetricsSnapshot `json:"http,omitempty"`
	Repl *apiv1.ReplStats `json:"repl,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var resp StatsResponse
	if s.live != nil {
		st := s.live.Stats()
		resp.Live = &st
	}
	if s.metrics != nil {
		snap := s.metrics.Snapshot()
		resp.HTTP = &snap
	}
	resp.Repl = s.replStats()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, newAPIError(http.StatusInternalServerError, apiv1.CodeInternal, "streaming unsupported"))
		return
	}
	bus := s.live.Bus()
	var sub *live.Subscriber
	if lastID := r.Header.Get("Last-Event-ID"); lastID != "" {
		if seq, err := strconv.ParseUint(lastID, 10, 64); err == nil {
			// Resume: replay from the ring right after the last event
			// the client saw. If the ring has moved past it, the first
			// Drain reports the gap and the loop below surfaces it as
			// a lag event.
			sub = bus.SubscribeFrom(seq)
		}
	}
	if sub == nil {
		sub = bus.Subscribe()
	}
	defer sub.Close()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	ctx := r.Context()
	for {
		events, dropped := sub.Drain()
		if dropped > 0 {
			writeSSE(w, live.Event{Type: live.EventLag, At: int64(s.live.Now()), Dropped: dropped})
		}
		for _, ev := range events {
			writeSSE(w, ev)
		}
		if dropped > 0 || len(events) > 0 {
			fl.Flush()
			// Publish→delivered freshness, stamped after the flush so
			// the span covers the whole fan-out including the kernel
			// write. Replayed events (Last-Event-ID resume) carry their
			// original publish stamp, which is the honest measurement:
			// the client really did see them that late.
			now := obs.Now()
			for i := range events {
				if p := events[i].PubNano; p > 0 {
					histFreshSSE.Observe(time.Duration(now - p))
				}
			}
		}
		select {
		case <-ctx.Done():
			return
		case <-sub.Ready():
		}
	}
}

// writeSSE emits one SSE frame. Event JSON carries the type too, so
// clients may dispatch on either the SSE event name or the payload.
func writeSSE(w http.ResponseWriter, ev live.Event) {
	data, err := json.Marshal(ev)
	if err != nil {
		return
	}
	if ev.Seq > 0 {
		fmt.Fprintf(w, "id: %d\n", ev.Seq)
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
}
