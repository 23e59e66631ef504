package httpapi

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"diggsim/internal/apiv1"
	"diggsim/internal/digg"
	"diggsim/internal/graph"
	"diggsim/internal/live"
	"diggsim/internal/obs"
	"diggsim/internal/rng"
)

// newLiveTestServer wires a live service into a server over a small
// platform, with the step loop driven manually via StepTo.
func newLiveTestServer(t *testing.T) (*live.Service, *Client) {
	return newLiveTestServerCfg(t, live.Config{Seed: 5, SubmissionsPerHour: 30, StartAt: 100})
}

func newLiveTestServerCfg(t *testing.T, cfg live.Config) (*live.Service, *Client) {
	t.Helper()
	g, err := graph.PreferentialAttachment(rng.New(11), 1500, 4, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	p := digg.NewPlatform(g, &digg.ClassicPromotion{VoteThreshold: 8, Window: digg.Day})
	svc, err := live.NewService(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(p, cfg.StartAt, nil)
	srv.AttachLive(svc)
	m := NewMetrics()
	srv.AttachMetrics(m)
	ts := httptest.NewServer(m.Middleware(srv.Handler()))
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)
	c.Backoff = time.Millisecond
	return svc, c
}

// TestStreamDeliversLifecycle subscribes over real HTTP/SSE, steps the
// simulation, and expects to observe a story's submit -> digg ->
// promote lifecycle on the wire.
func TestStreamDeliversLifecycle(t *testing.T) {
	svc, c := newLiveTestServer(t)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	type lifecycle struct {
		submitted, dugg, promoted bool
	}
	stories := make(map[digg.StoryID]*lifecycle)
	var mu sync.Mutex
	done := make(chan struct{})
	streamErr := make(chan error, 1)
	go func() {
		streamErr <- c.Stream(ctx, func(ev live.Event) error {
			mu.Lock()
			defer mu.Unlock()
			lc := stories[ev.Story]
			if lc == nil {
				lc = &lifecycle{}
				stories[ev.Story] = lc
			}
			switch ev.Type {
			case live.EventSubmit:
				lc.submitted = true
			case live.EventDigg:
				lc.dugg = true
			case live.EventPromote:
				if lc.submitted && lc.dugg {
					select {
					case <-done:
					default:
						close(done)
					}
				}
				lc.promoted = true
			}
			return nil
		})
	}()

	// Step the sim until a fully observed lifecycle shows up on the
	// stream (the subscriber attaches after Stream connects, so give
	// the connection a moment first).
	deadline := time.After(25 * time.Second)
	now := digg.Minutes(100)
	time.Sleep(50 * time.Millisecond)
	for {
		select {
		case <-done:
			cancel()
			if err := <-streamErr; err != nil && err != context.Canceled {
				t.Fatalf("stream error: %v", err)
			}
			return
		case err := <-streamErr:
			t.Fatalf("stream ended early: %v", err)
		case <-deadline:
			t.Fatal("no submit->digg->promote lifecycle observed on the stream")
		default:
		}
		now += 30
		if err := svc.StepTo(now); err != nil {
			t.Fatal(err)
		}
		// Pace the stepping so the SSE reader keeps up with the ring
		// buffer instead of lagging past whole lifecycles.
		time.Sleep(2 * time.Millisecond)
	}
}

// TestStreamClientReconnect severs the SSE stream repeatedly and
// checks the client resumes transparently with Last-Event-ID, seeing
// every sequence number exactly once.
func TestStreamClientReconnect(t *testing.T) {
	var mu sync.Mutex
	var lastIDs []string
	conn := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		lastIDs = append(lastIDs, r.Header.Get("Last-Event-ID"))
		n := conn
		conn++
		mu.Unlock()
		w.Header().Set("Content-Type", "text/event-stream")
		// Serve three events, then return — the server closing the
		// stream mid-feed. Each connection continues the sequence.
		for seq := n*3 + 1; seq <= n*3+3; seq++ {
			fmt.Fprintf(w, "id: %d\nevent: digg\ndata: {\"seq\":%d,\"type\":\"digg\"}\n\n", seq, seq)
		}
	}))
	defer ts.Close()

	c := NewClient(ts.URL)
	c.Backoff = time.Millisecond
	var seqs []uint64
	errDone := errors.New("done")
	err := c.Stream(context.Background(), func(ev live.Event) error {
		seqs = append(seqs, ev.Seq)
		if ev.Seq >= 6 {
			return errDone
		}
		return nil
	})
	if !errors.Is(err, errDone) {
		t.Fatalf("stream error = %v, want errDone", err)
	}
	want := []uint64{1, 2, 3, 4, 5, 6}
	if len(seqs) != len(want) {
		t.Fatalf("seqs = %v, want %v", seqs, want)
	}
	for i := range want {
		if seqs[i] != want[i] {
			t.Fatalf("seqs = %v, want %v", seqs, want)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(lastIDs) != 2 || lastIDs[0] != "" || lastIDs[1] != "3" {
		t.Errorf("Last-Event-ID per connection = %q, want [\"\" \"3\"]", lastIDs)
	}
}

// TestStreamNoReconnectWhenDisabled checks DisableTransientRetry
// restores the old single-connection behavior.
func TestStreamNoReconnectWhenDisabled(t *testing.T) {
	var mu sync.Mutex
	conns := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		conns++
		mu.Unlock()
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, "id: 1\nevent: digg\ndata: {\"seq\":1,\"type\":\"digg\"}\n\n")
	}))
	defer ts.Close()

	c := NewClient(ts.URL)
	c.DisableTransientRetry = true
	err := c.Stream(context.Background(), func(live.Event) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "closed by server") {
		t.Fatalf("err = %v, want stream-closed error", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if conns != 1 {
		t.Errorf("connections = %d, want 1 (no reconnect)", conns)
	}
}

// TestStreamResumeOverwrittenReportsLag reconnects with a Last-Event-ID
// the broadcast ring has already overwritten and expects the first
// frame to be a synthetic lag event carrying the exact gap, followed by
// replay from the oldest retained event.
func TestStreamResumeOverwrittenReportsLag(t *testing.T) {
	svc, c := newLiveTestServerCfg(t, live.Config{
		Seed: 5, SubmissionsPerHour: 30, StartAt: 100, SubscriberBuffer: 8,
	})
	// Generate far more than 8 events, then stop stepping: the head is
	// stable while we read.
	if err := svc.StepTo(100 + 2*digg.Day); err != nil {
		t.Fatal(err)
	}
	head := svc.Bus().Stats().Published
	if head <= 16 {
		t.Fatalf("only %d events published", head)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// First frame: the lag event. Events 2..head-8 are gone (head-9 of
	// them); replay resumes at head-7.
	r := bufio.NewReader(resp.Body)
	frame := readSSEFrame(t, r)
	if frame.event != string(live.EventLag) {
		t.Fatalf("first frame event = %q, want lag (data %q)", frame.event, frame.data)
	}
	wantDropped := fmt.Sprintf(`"dropped":%d`, head-9)
	if !strings.Contains(frame.data, wantDropped) {
		t.Errorf("lag frame %q does not contain %s", frame.data, wantDropped)
	}
	frame = readSSEFrame(t, r)
	if frame.id != fmt.Sprintf("%d", head-7) {
		t.Errorf("replay resumed at id %q, want %d", frame.id, head-7)
	}
}

// TestStreamResumeWithinRing reconnects with a Last-Event-ID the ring
// still holds and expects seamless replay with no lag frame.
func TestStreamResumeWithinRing(t *testing.T) {
	svc, c := newLiveTestServerCfg(t, live.Config{
		Seed: 5, SubmissionsPerHour: 30, StartAt: 100, SubscriberBuffer: 4096,
	})
	if err := svc.StepTo(100 + digg.Day); err != nil {
		t.Fatal(err)
	}
	head := svc.Bus().Stats().Published
	if head < 4 {
		t.Fatalf("only %d events published", head)
	}
	resume := head - 3

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", fmt.Sprintf("%d", resume))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	r := bufio.NewReader(resp.Body)
	for want := resume + 1; want <= head; want++ {
		frame := readSSEFrame(t, r)
		if frame.event == string(live.EventLag) {
			t.Fatalf("unexpected lag frame on in-ring resume: %q", frame.data)
		}
		if frame.id != fmt.Sprintf("%d", want) {
			t.Fatalf("frame id = %q, want %d", frame.id, want)
		}
	}
}

type sseFrame struct {
	id, event, data string
}

// readSSEFrame reads one id/event/data frame off a raw SSE stream.
func readSSEFrame(t *testing.T, r *bufio.Reader) sseFrame {
	t.Helper()
	var f sseFrame
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("reading SSE stream: %v (frame so far %+v)", err, f)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "id:"):
			f.id = strings.TrimSpace(strings.TrimPrefix(line, "id:"))
		case strings.HasPrefix(line, "event:"):
			f.event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			f.data = strings.TrimSpace(strings.TrimPrefix(line, "data:"))
		case line == "" && f.data != "":
			return f
		}
	}
}

func TestStatsEndpoint(t *testing.T) {
	svc, c := newLiveTestServer(t)
	if err := svc.StepTo(100 + digg.Day); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Generate a couple of requests so HTTP metrics are non-zero.
	if _, err := c.FrontPage(ctx, 10); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Live == nil {
		t.Fatal("stats missing live section")
	}
	if stats.Live.Submits == 0 || stats.Live.Diggs == 0 {
		t.Errorf("no live activity in stats: %+v", *stats.Live)
	}
	if stats.Live.SimNow != int64(100+digg.Day) {
		t.Errorf("SimNow = %d", stats.Live.SimNow)
	}
	if stats.HTTP == nil {
		t.Fatal("stats missing http section")
	}
	if stats.HTTP.Requests == 0 {
		t.Error("metrics middleware counted no requests")
	}
}

// TestTracerSkipsStreams checks a stream is not a slow request: an
// SSE stream held open past the tracer's slow threshold leaves its
// ring untouched, while a slow plain response still lands in it.
func TestTracerSkipsStreams(t *testing.T) {
	g, err := graph.PreferentialAttachment(rng.New(11), 200, 4, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	p := digg.NewPlatform(g, &digg.ClassicPromotion{VoteThreshold: 8, Window: digg.Day})
	svc, err := live.NewService(p, live.Config{Seed: 5, StartAt: 100})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(p, 100, nil)
	srv.AttachLive(svc)
	const slow = 20 * time.Millisecond
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.HandleFunc("GET /slow", func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * slow)
		w.WriteHeader(http.StatusOK)
	})
	tracer := &Tracer{SlowThreshold: slow, Ring: obs.NewTraceRing(8)}
	ts := httptest.NewServer(tracer.Middleware(mux))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/slow")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := tracer.Ring.Total(); got != 1 {
		t.Fatalf("slow plain request: ring total %d, want 1", got)
	}

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * slow)
	cancel()
	resp.Body.Close()
	// Close waits for the stream handler, and so for the tracer's
	// verdict on it.
	ts.Close()
	if got := tracer.Ring.Total(); got != 1 {
		t.Fatalf("after a %v stream: ring total %d, want 1 (streams are not slow requests)", 3*slow, got)
	}
}

// TestStaticStatsOmitsLive checks /v1/stats on a plain static server.
func TestStaticStatsOmitsLive(t *testing.T) {
	_, _, c := newTestServer(t)
	stats, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Live != nil || stats.HTTP != nil {
		t.Errorf("static stats = %+v", stats)
	}
}

// TestSetNowFunc verifies the advancing clock drives upcoming-queue
// visibility and default write timestamps.
func TestSetNowFunc(t *testing.T) {
	srv, _, c := newTestServer(t)
	var now digg.Minutes = 50
	srv.SetNowFunc(func() digg.Minutes { return now })
	ctx := context.Background()
	if _, err := c.Submit(ctx, apiv1.SubmitRequest{Submitter: 0, Title: "future", At: 200}); err != nil {
		t.Fatal(err)
	}
	up, err := c.Upcoming(ctx, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(up) != 0 {
		t.Fatalf("future story visible at now=50: %+v", up)
	}
	now = 250 // clock advances: the story scrolls into view
	up, err = c.Upcoming(ctx, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(up) != 1 || up[0].SubmittedAt != 200 {
		t.Fatalf("story not visible at now=250: %+v", up)
	}
	// Default timestamps come from the clock too.
	st, err := c.Submit(ctx, apiv1.SubmitRequest{Submitter: 1, Title: "stamped"})
	if err != nil {
		t.Fatal(err)
	}
	if st.SubmittedAt != 250 {
		t.Errorf("default submit time = %d, want 250", st.SubmittedAt)
	}
}
