package httpapi

// freshness_test.go pins the end-to-end freshness spans: an HTTP
// write is observed into the write→frontpage-visible histogram only
// after the republished snapshot actually serves it, live events
// carry their publish stamp through the broadcast ring into the
// publish→SSE-delivered histogram at flush time, and a primary commit
// rides a heartbeat's commit extension to the follower, which
// observes commit→follower-visible and surfaces the originating trace
// ID. Run with -race: every span crosses goroutines (handler vs
// stream writer vs replication tailer).

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"diggsim/internal/apiv1"
	"diggsim/internal/digg"
	"diggsim/internal/live"
	"diggsim/internal/obs"
)

// histCount reads an instrument's lifetime observation count from the
// shared default registry (the package instruments are process-global,
// so tests measure deltas, never absolutes).
func histCount(family, labels string) uint64 {
	snap := obs.Default.Histogram(family, labels, "").Snapshot()
	return snap.Count()
}

// waitDelta polls until the instrument's count has grown by at least
// want over base, or the deadline passes.
func waitDelta(t *testing.T, family, labels string, base, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for histCount(family, labels) < base+want {
		if time.Now().After(deadline) {
			t.Fatalf("%s{%s} count %d, want >= %d", family, labels,
				histCount(family, labels), base+want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFreshnessSubmitToSSEDelivery drives the primary-side spans over
// real HTTP: a v1 submit must observe into the write→visible
// histogram exactly once and only after the read path serves the new
// story, and live events delivered over SSE must observe into the
// publish→delivered histogram.
func TestFreshnessSubmitToSSEDelivery(t *testing.T) {
	svc, c := newLiveTestServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Second)
	defer cancel()

	httpBase := histCount(obs.FreshnessFrontpageFamily, `source="http"`)
	stepBase := histCount(obs.FreshnessFrontpageFamily, `source="step"`)
	sseBase := histCount(obs.FreshnessSSEFamily, "")

	// One HTTP submit: one http-source observation, and the story is
	// already visible on the read path when the write returns (the
	// span closes after republish, so anything else would be a lie).
	st, err := c.Submit(ctx, apiv1.SubmitRequest{Submitter: 1, Title: "fresh-e2e", Interest: 0.5, At: 101})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Story(ctx, st.ID); err != nil {
		t.Fatalf("story invisible after submit returned: %v", err)
	}
	if got := histCount(obs.FreshnessFrontpageFamily, `source="http"`); got != httpBase+1 {
		t.Fatalf("http freshness count = %d, want %d", got, httpBase+1)
	}

	// Stream a few simulated steps: delivered events must observe into
	// the SSE span, and event-producing steps into the step span. The
	// subscriber is a real HTTP/SSE client, so the observation happens
	// on the server's stream-writer goroutine while this goroutine
	// keeps stepping — the -race half of the test.
	var received atomic.Uint64
	streamErr := make(chan error, 1)
	go func() {
		streamErr <- c.Stream(ctx, func(ev live.Event) error {
			received.Add(1)
			return nil
		})
	}()
	time.Sleep(50 * time.Millisecond) // let the subscriber attach
	now := digg.Minutes(110)
	for received.Load() == 0 {
		select {
		case err := <-streamErr:
			t.Fatalf("stream ended early: %v", err)
		case <-ctx.Done():
			t.Fatal("no SSE event delivered before timeout")
		default:
		}
		now += 30
		if err := svc.StepTo(now); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	waitDelta(t, obs.FreshnessSSEFamily, "", sseBase, 1)
	waitDelta(t, obs.FreshnessFrontpageFamily, `source="step"`, stepBase, 1)
	cancel()
	if err := <-streamErr; err != nil && err != context.Canceled {
		t.Fatalf("stream error: %v", err)
	}
}

// TestFreshnessCommitToFollower pins the cross-process span: a write
// committed on the primary (trace ID stamped alongside) must, once
// applied and republished on the follower, produce a
// commit→follower-visible observation at heartbeat receipt — and the
// follower must surface that same trace ID, proving the join signal
// survives the wire.
func TestFreshnessCommitToFollower(t *testing.T) {
	h := newReplHarness(t, 10, 0)
	h.waitCaughtUp()

	followerBase := histCount(obs.FreshnessFollowerFamily, "")

	const traceID = 0x4f2a9c01d3e87b65
	h.primary.DurableShard(0).SetWriteTrace(traceID)
	if _, err := h.primary.Submit(7, "freshness-probe", 0.5, 5000); err != nil {
		t.Fatal(err)
	}
	h.waitCaughtUp()

	// The observation happens on the follower's tailer goroutine at
	// the next heartbeat after apply+republish; the harness heartbeats
	// every 5ms.
	waitDelta(t, obs.FreshnessFollowerFamily, "", followerBase, 1)

	want := fmt.Sprintf("%016x", uint64(traceID))
	deadline := time.Now().Add(5 * time.Second)
	for {
		sts := h.follower.ShardStatuses()
		if len(sts) == 1 && sts[0].CommitTraceID == want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower shard status trace = %+v, want commit_trace_id %q", sts, want)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The follower's /metrics exposition carries the family, and the
	// /v1/stats repl block surfaces the trace join key over HTTP.
	for path, substr := range map[string]string{
		"/metrics":  obs.FreshnessFollowerFamily,
		"/v1/stats": fmt.Sprintf(`"commit_trace_id":%q`, want),
	} {
		resp, err := http.Get(h.apiTS.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(body), substr) {
			t.Errorf("%s missing %s", path, substr)
		}
	}
}
