package httpapi

// repl_test.go runs the HTTP API over a replication follower: the
// full read surface against replicated state, write fencing with the
// v1 read_only_replica envelope, the X-Replica-Lag header, /readyz
// gating, promotion over HTTP, and a cursor crawl that spans a
// follower kill/restart without duplicating or skipping a story.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"diggsim/internal/apiv1"
	"diggsim/internal/digg"
	"diggsim/internal/durable"
	"diggsim/internal/graph"
	"diggsim/internal/repl"
	"diggsim/internal/shard"
	"diggsim/internal/wal"
)

func replTestOpts() durable.Options {
	return durable.Options{
		Policy:          &digg.ClassicPromotion{VoteThreshold: 3, Window: digg.Day},
		Sync:            wal.SyncOS,
		CheckpointEvery: -1,
	}
}

// replHarness is a one-shard durable primary serving replication, plus a
// follower running the HTTP API behind a stable front URL. The front
// handler is swappable so a test can kill and restart the follower
// while clients keep hitting the same address (as behind an LB).
type replHarness struct {
	t        *testing.T
	fdir     string
	primary  *shard.Store
	replSrc  *repl.Source
	replTS   *httptest.Server
	node     *repl.Node
	follower *repl.Follower
	srv      *Server
	handler  atomic.Value // http.Handler
	apiTS    *httptest.Server
}

func newReplHarness(t *testing.T, stories int, maxLag time.Duration) *replHarness {
	t.Helper()
	g, err := graph.FromEdgeList(50, [][2]graph.NodeID{{1, 0}, {2, 0}, {3, 1}})
	if err != nil {
		t.Fatal(err)
	}
	p := digg.NewPlatform(g, &digg.ClassicPromotion{VoteThreshold: 3, Window: digg.Day})

	h := &replHarness{t: t, fdir: t.TempDir()}
	h.primary, err = shard.Create(t.TempDir(), p, 1, []byte(`{"api":"repl-test"}`), replTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.primary.Close() })
	// Seed through the store (shard.Create installs a source's stories
	// compacted), then checkpoint so a follower bootstraps the seeds.
	for i := 0; i < stories; i++ {
		st, err := h.primary.Submit(digg.UserID(i%50), fmt.Sprintf("story-%d", i), 0.5, digg.Minutes(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			_, _ = h.primary.Digg(st.ID, digg.UserID((i+7)%50), digg.Minutes(i+2))
			_, _ = h.primary.Digg(st.ID, digg.UserID((i+13)%50), digg.Minutes(i+3))
		}
	}
	if err := h.primary.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	h.replSrc = &repl.Source{
		Shards:    repl.SourceShardsOf(h.primary),
		Heartbeat: 5 * time.Millisecond,
		Poll:      time.Millisecond,
	}
	mux := http.NewServeMux()
	mux.Handle("/repl/v1/", http.StripPrefix("/repl/v1", h.replSrc.Handler()))
	h.replTS = httptest.NewServer(mux)
	t.Cleanup(h.replTS.Close)
	t.Cleanup(h.replSrc.Close)

	h.startFollower(maxLag)
	h.apiTS = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.handler.Load().(http.Handler).ServeHTTP(w, r)
	}))
	t.Cleanup(h.apiTS.Close)
	t.Cleanup(func() {
		h.follower.Stop()
		h.node.Close()
	})
	return h
}

// startFollower (re)bootstraps the follower from h.fdir and publishes
// a fresh API server for it on the front handler.
func (h *replHarness) startFollower(maxLag time.Duration) {
	h.t.Helper()
	tr := &repl.HTTPTransport{Base: h.replTS.URL}
	node, err := repl.Bootstrap(context.Background(), tr, h.fdir, replTestOpts())
	if err != nil {
		h.t.Fatal(err)
	}
	f := repl.NewFollower(node.Target, tr, repl.Options{
		BackoffMin: 5 * time.Millisecond,
		BackoffMax: 50 * time.Millisecond,
		StateDir:   h.fdir,
		Primary:    h.replTS.URL,
	})
	f.Start()
	h.node, h.follower = node, f

	srv := NewServer(node.Store(), digg.Minutes(1<<20), nil)
	srv.AttachRepl(f, maxLag)
	h.srv = srv
	h.handler.Store(srv.Handler())
}

// killFollower stops the follower process; the front URL answers 503
// (a load balancer with no healthy backend) until restart.
func (h *replHarness) killFollower() {
	h.t.Helper()
	h.handler.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	h.follower.Stop()
	if err := h.node.Close(); err != nil {
		h.t.Fatal(err)
	}
}

// waitCaughtUp blocks until the follower applied the primary's head.
func (h *replHarness) waitCaughtUp() {
	h.t.Helper()
	head := h.primary.ShardAppliedLSN(0)
	deadline := time.Now().Add(20 * time.Second)
	for h.node.Target.AppliedLSN(0) < head {
		if time.Now().After(deadline) {
			h.t.Fatalf("follower never caught up: applied %d, want %d (err: %v)",
				h.node.Target.AppliedLSN(0), head, h.follower.Err())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (h *replHarness) client() *Client {
	c := NewClient(h.apiTS.URL)
	c.Backoff = time.Millisecond
	return c
}

func TestFollowerServesReads(t *testing.T) {
	h := newReplHarness(t, 30, 0)
	h.waitCaughtUp()
	c := h.client()
	ctx := context.Background()

	// The full story listing crawls cleanly off the follower.
	var ids []digg.StoryID
	for page, err := range c.Stories(ctx, 7) {
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range page.Stories {
			ids = append(ids, st.ID)
		}
	}
	if len(ids) != h.primary.NumStories() {
		t.Fatalf("crawled %d stories, primary has %d", len(ids), h.primary.NumStories())
	}

	// Detail reads match the primary byte-for-byte where it counts.
	want, err := h.primary.Story(0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Story(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Title != want.Title || got.Votes != want.VoteCount() {
		t.Fatalf("story 0 = %+v, want title %q votes %d", got, want.Title, want.VoteCount())
	}

	// Reads carry the replica-lag header; a healthy stream reports a
	// small numeric lag.
	resp, err := http.Get(h.apiTS.URL + "/v1/frontpage?limit=5")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	lag := resp.Header.Get("X-Replica-Lag")
	if lag == "" {
		t.Fatal("follower read missing X-Replica-Lag header")
	}
	if lag != "inf" {
		secs, err := strconv.ParseFloat(lag, 64)
		if err != nil || secs < 0 || secs > 60 {
			t.Fatalf("X-Replica-Lag = %q", lag)
		}
	}

	// /v1/stats reports the follower role and per-shard positions.
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Repl == nil || stats.Repl.Role != "follower" || len(stats.Repl.Shards) != 1 {
		t.Fatalf("stats repl = %+v", stats.Repl)
	}
	if stats.Repl.Shards[0].AppliedLSN < h.primary.ShardAppliedLSN(0) {
		t.Fatalf("stats applied LSN %d behind primary %d",
			stats.Repl.Shards[0].AppliedLSN, h.primary.ShardAppliedLSN(0))
	}

	// /metrics exposes the replication gauges.
	resp, err = http.Get(h.apiTS.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, metric := range []string{"diggsim_repl_applied_lsn", "diggsim_repl_shipped_lsn"} {
		if !strings.Contains(string(body), metric) {
			t.Errorf("/metrics missing %s", metric)
		}
	}
}

func TestFollowerFencesWrites(t *testing.T) {
	h := newReplHarness(t, 10, 0)
	h.waitCaughtUp()
	c := h.client()
	ctx := context.Background()

	wantFenced := func(err error) {
		t.Helper()
		var apiErr *apiv1.Error
		if !errors.As(err, &apiErr) {
			t.Fatalf("fenced write error = %v, want *apiv1.Error", err)
		}
		if apiErr.StatusCode != http.StatusServiceUnavailable || apiErr.Code != apiv1.CodeReadOnlyReplica {
			t.Fatalf("fenced write = status %d code %q", apiErr.StatusCode, apiErr.Code)
		}
	}

	_, err := c.Submit(ctx, apiv1.SubmitRequest{Submitter: 0, Title: "x", At: 999})
	wantFenced(err)
	_, err = c.Digg(ctx, 0, apiv1.DiggRequest{Voter: 9, At: 999})
	wantFenced(err)
	_, err = c.DiggBatch(ctx, apiv1.BatchDiggRequest{
		Diggs: []apiv1.BatchDiggItem{{Story: 0, Voter: 9, At: 999}},
	})
	wantFenced(err)
	_, err = c.SubmitBatch(ctx, apiv1.BatchSubmitRequest{
		Stories: []apiv1.SubmitRequest{{Submitter: 0, Title: "x", At: 999}},
	})
	wantFenced(err)

	// Nothing leaked through the fence.
	h.srv.mu.RLock()
	n := h.node.Store().NumStories()
	h.srv.mu.RUnlock()
	if n != h.primary.NumStories() {
		t.Fatalf("follower has %d stories after fenced writes, want %d", n, h.primary.NumStories())
	}
}

func TestFollowerReadyzAndPromotion(t *testing.T) {
	h := newReplHarness(t, 10, 75*time.Millisecond)
	h.waitCaughtUp()
	c := h.client()
	ctx := context.Background()

	getStatus := func(path string) int {
		t.Helper()
		resp, err := http.Get(h.apiTS.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	// Healthy stream: live and ready.
	if got := getStatus("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz = %d", got)
	}
	waitReady := func(want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if got := getStatus("/readyz"); got == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("readyz never reached %d (last: %d)", want, getStatus("/readyz"))
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitReady(http.StatusOK)

	// The primary dies: heartbeats stop, staleness grows past the
	// 75ms bound, and the follower drops out of rotation — while
	// still serving reads (stale is better than down).
	h.replSrc.Close()
	h.replTS.Close()
	waitReady(http.StatusServiceUnavailable)
	if got := getStatus("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz during primary outage = %d (liveness must not flap)", got)
	}
	if _, err := c.FrontPage(ctx, 5); err != nil {
		t.Fatalf("reads must survive the primary outage: %v", err)
	}

	// Failover: promotion lifts the fence, restores readiness, and
	// the ex-follower takes writes over HTTP.
	if err := h.follower.Promote(); err != nil {
		t.Fatal(err)
	}
	waitReady(http.StatusOK)
	st, err := c.Submit(ctx, apiv1.SubmitRequest{Submitter: 3, Title: "first-post-failover", At: 2000})
	if err != nil {
		t.Fatalf("write after promotion: %v", err)
	}
	got, err := c.Story(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Title != "first-post-failover" {
		t.Fatalf("post-failover story = %+v", got)
	}
	// The lag header disappears with the fence.
	resp, err := http.Get(h.apiTS.URL + "/v1/frontpage?limit=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if lag := resp.Header.Get("X-Replica-Lag"); lag != "" {
		t.Fatalf("promoted node still advertises X-Replica-Lag %q", lag)
	}
}

func TestCursorCrawlSpansFollowerRestart(t *testing.T) {
	const stories = 120
	h := newReplHarness(t, stories, 0)
	h.waitCaughtUp()

	// Generous GET retries: the crawl must ride out the 503 window
	// while the follower restarts behind the front URL.
	c := NewClientWith(h.apiTS.URL, ClientOptions{
		MaxRetries: 30,
		Backoff:    2 * time.Millisecond,
		MaxBackoff: 50 * time.Millisecond,
	})

	ctx := context.Background()
	var ids []digg.StoryID
	cursor := apiv1.Cursor("")
	page := 0
	for {
		pg, err := c.StoriesAt(ctx, cursor, 10)
		if err != nil {
			t.Fatalf("page %d: %v", page, err)
		}
		for _, st := range pg.Stories {
			ids = append(ids, st.ID)
		}
		page++
		if page == 4 {
			// Kill the follower mid-crawl and restart it in the
			// background; the client sees 503s until the replacement
			// finishes bootstrapping from the primary.
			h.killFollower()
			done := make(chan struct{})
			go func() {
				defer close(done)
				h.startFollower(0)
				h.waitCaughtUp()
				h.handler.Store(h.srv.Handler())
			}()
			defer func() { <-done }()
		}
		if cursor = pg.NextCursor; cursor == "" {
			break
		}
	}

	if len(ids) != stories {
		t.Fatalf("crawl returned %d stories, want %d", len(ids), stories)
	}
	seen := make(map[digg.StoryID]bool, len(ids))
	for i, id := range ids {
		if seen[id] {
			t.Fatalf("story %d duplicated in the crawl", id)
		}
		seen[id] = true
		if int(id) != i {
			t.Fatalf("crawl out of order at index %d: story %d", i, id)
		}
	}
}
