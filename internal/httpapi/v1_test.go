package httpapi

// v1_test.go exercises the versioned API surface end to end through
// the client SDK: every /v1 endpoint, cursor exhaustion, tampered
// cursors, the machine-readable error envelope, batch writes, client-
// side conditional GETs, and — the acceptance test for cursor
// stability — a full paginated crawl racing the live simulation
// writer.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"diggsim/internal/apiv1"
	"diggsim/internal/digg"
	"diggsim/internal/durable"
	"diggsim/internal/graph"
	"diggsim/internal/live"
	"diggsim/internal/rng"
	"diggsim/internal/shard"
	"diggsim/internal/wal"
)

func TestV1EndpointsEndToEnd(t *testing.T) {
	_, ts, c := newTestServer(t)
	ctx := context.Background()

	// Submit, digg, detail.
	created, err := c.Submit(ctx, apiv1.SubmitRequest{Submitter: 0, Title: "hello v1", Interest: 0.5, At: 10})
	if err != nil {
		t.Fatal(err)
	}
	if created.Title != "hello v1" || created.Votes != 1 {
		t.Errorf("created = %+v", created)
	}
	res, err := c.Digg(ctx, created.ID, apiv1.DiggRequest{Voter: 1, At: 11})
	if err != nil {
		t.Fatal(err)
	}
	if !res.InNetwork || res.Votes != 2 {
		t.Errorf("digg = %+v", res)
	}
	got, err := c.Story(ctx, created.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.VoteList) != 2 || got.VoteList[0].Voter != 0 {
		t.Errorf("story = %+v", got)
	}

	// Typed errors carry stable codes through errors.As.
	var apiErr *apiv1.Error
	if _, err := c.Story(ctx, 999); !errors.As(err, &apiErr) || apiErr.Code != apiv1.CodeNotFound {
		t.Errorf("missing story err = %v", err)
	}
	if _, err := c.Digg(ctx, created.ID, apiv1.DiggRequest{Voter: 1, At: 12}); !errors.As(err, &apiErr) ||
		apiErr.Code != apiv1.CodeAlreadyVoted || apiErr.StatusCode != http.StatusConflict {
		t.Errorf("duplicate vote err = %v", err)
	}
	if _, err := c.Submit(ctx, apiv1.SubmitRequest{Submitter: 999, Title: "x", At: 1}); !errors.As(err, &apiErr) ||
		apiErr.Code != apiv1.CodeUnknownUser {
		t.Errorf("unknown submitter err = %v", err)
	}

	// Malformed query params are invalid_argument.
	resp, err := http.Get(ts.URL + "/v1/stories?limit=-3")
	if err != nil {
		t.Fatal(err)
	}
	var env apiv1.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || env.Error == nil || env.Error.Code != apiv1.CodeInvalidArgument {
		t.Errorf("negative limit: status=%d envelope=%+v", resp.StatusCode, env.Error)
	}
	// Overflowing limit too.
	resp, err = http.Get(ts.URL + "/v1/upcoming?limit=99999999999999999999")
	if err != nil {
		t.Fatal(err)
	}
	env = apiv1.ErrorEnvelope{}
	_ = json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || env.Error == nil || env.Error.Code != apiv1.CodeInvalidArgument {
		t.Errorf("overflow limit: status=%d envelope=%+v", resp.StatusCode, env.Error)
	}

	// Queues, users, links, topusers.
	up, err := c.Upcoming(ctx, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(up) != 1 || up[0].ID != created.ID {
		t.Errorf("upcoming = %+v", up)
	}
	info, err := c.User(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.Fans != 2 {
		t.Errorf("user = %+v", info)
	}
	fans, err := c.Fans(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(fans) != 2 || fans[0] != 1 || fans[1] != 2 {
		t.Errorf("fans = %v", fans)
	}
	friends, err := c.Friends(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(friends) != 1 || friends[0] != 0 {
		t.Errorf("friends = %v", friends)
	}
	// Promote (threshold 3), then the front page and topusers fill.
	if _, err := c.Digg(ctx, created.ID, apiv1.DiggRequest{Voter: 5, At: 12}); err != nil {
		t.Fatal(err)
	}
	fp, err := c.FrontPage(ctx, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(fp) != 1 || !fp[0].Promoted {
		t.Errorf("front page = %+v", fp)
	}
	top, err := c.TopUsers(ctx, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 1 || top[0] != 0 {
		t.Errorf("topusers = %v", top)
	}
	if _, err := c.Stats(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestV1CursorExhaustion walks every paginated listing to the end with
// tiny pages and checks coverage, order, and that the final page omits
// the cursor.
func TestV1CursorExhaustion(t *testing.T) {
	g, err := graph.FromEdgeList(10, [][2]graph.NodeID{{1, 0}, {2, 0}, {3, 0}})
	if err != nil {
		t.Fatal(err)
	}
	p := digg.NewPlatform(g, digg.NeverPromote{})
	const n = 23
	for i := 0; i < n; i++ {
		st := &digg.Story{
			ID: digg.StoryID(i), Title: fmt.Sprintf("s%d", i), Submitter: digg.UserID(i % 10),
			SubmittedAt: digg.Minutes(i),
			Votes:       []digg.Vote{{Voter: digg.UserID(i % 10), At: digg.Minutes(i)}},
		}
		st.Promoted = i%3 == 0
		if st.Promoted {
			st.PromotedAt = digg.Minutes(i + 1)
		}
		if err := p.InstallStory(st); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer(p, digg.Minutes(n), nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)
	c.Backoff = time.Millisecond
	ctx := context.Background()

	// Full story listing: ascending, complete, one visit each.
	var ids []int
	pages := 0
	for page, err := range c.Stories(ctx, 7) {
		if err != nil {
			t.Fatal(err)
		}
		pages++
		if page.Total != n {
			t.Fatalf("total = %d", page.Total)
		}
		for _, s := range page.Stories {
			ids = append(ids, int(s.ID))
		}
	}
	if pages != 4 || len(ids) != n {
		t.Fatalf("stories crawl: %d pages, %d ids", pages, len(ids))
	}
	for i, id := range ids {
		if id != i {
			t.Fatalf("stories order: %v", ids)
		}
	}

	// Upcoming: descending ids, exactly the unpromoted set.
	var upIDs []int
	for page, err := range c.UpcomingPages(ctx, 4) {
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range page.Stories {
			upIDs = append(upIDs, int(s.ID))
		}
	}
	wantUp := 0
	for i := n - 1; i >= 0; i-- {
		if i%3 != 0 {
			if upIDs[wantUp] != i {
				t.Fatalf("upcoming crawl: %v", upIDs)
			}
			wantUp++
		}
	}
	if wantUp != len(upIDs) {
		t.Fatalf("upcoming crawl covered %d of %d", len(upIDs), wantUp)
	}

	// Front page: newest promotion first, exactly the promoted set.
	var fpIDs []int
	for page, err := range c.FrontPagePages(ctx, 3) {
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range page.Stories {
			fpIDs = append(fpIDs, int(s.ID))
		}
	}
	wantFP := 0
	for i := n - 1; i >= 0; i-- {
		if i%3 == 0 {
			if fpIDs[wantFP] != i {
				t.Fatalf("frontpage crawl: %v", fpIDs)
			}
			wantFP++
		}
	}
	if wantFP != len(fpIDs) {
		t.Fatalf("frontpage crawl covered %d of %d", len(fpIDs), wantFP)
	}

	// Fans: cursor pages of the immutable link list.
	var fans []digg.UserID
	for page, err := range c.FansPages(ctx, 0, 2) {
		if err != nil {
			t.Fatal(err)
		}
		if page.Total != 3 {
			t.Fatalf("fans total = %d", page.Total)
		}
		fans = append(fans, page.Users...)
	}
	if len(fans) != 3 || fans[0] != 1 || fans[2] != 3 {
		t.Fatalf("fans crawl = %v", fans)
	}
}

// TestV1DeepCursorFallback crawls both queues well past the 100
// entries views once pre-rendered (where cursor pages used to cross
// onto a locked fallback): every page comes from the snapshot and the
// crawl must still cover everything exactly once, in order.
func TestV1DeepCursorFallback(t *testing.T) {
	g, err := graph.FromEdgeList(10, [][2]graph.NodeID{{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	p := digg.NewPlatform(g, digg.NeverPromote{})
	const n = 240
	for i := 0; i < n; i++ {
		st := &digg.Story{
			ID: digg.StoryID(i), Title: fmt.Sprintf("s%d", i), Submitter: digg.UserID(i % 10),
			SubmittedAt: digg.Minutes(i),
			Votes:       []digg.Vote{{Voter: digg.UserID(i % 10), At: digg.Minutes(i)}},
		}
		st.Promoted = i%2 == 0
		if st.Promoted {
			st.PromotedAt = digg.Minutes(i + 1)
		}
		if err := p.InstallStory(st); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer(p, digg.Minutes(n), nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)
	c.Backoff = time.Millisecond
	ctx := context.Background()

	var fpIDs, upIDs []int
	for page, err := range c.FrontPagePages(ctx, 30) {
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range page.Stories {
			fpIDs = append(fpIDs, int(s.ID))
		}
	}
	for page, err := range c.UpcomingPages(ctx, 30) {
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range page.Stories {
			upIDs = append(upIDs, int(s.ID))
		}
	}
	if len(fpIDs) != n/2 || len(upIDs) != n/2 {
		t.Fatalf("coverage: %d front, %d upcoming, want %d each", len(fpIDs), len(upIDs), n/2)
	}
	for k := 1; k < len(fpIDs); k++ {
		if fpIDs[k] >= fpIDs[k-1] {
			t.Fatalf("frontpage order broke at %d: %v...", k, fpIDs[:k+1])
		}
	}
	for k := 1; k < len(upIDs); k++ {
		if upIDs[k] >= upIDs[k-1] {
			t.Fatalf("upcoming order broke at %d: %v...", k, upIDs[:k+1])
		}
	}
}

// TestV1InvalidCursor tampers with a genuine cursor, replays cursors
// across endpoints and adds a shard vector to one; all must come back
// as invalid_cursor.
func TestV1InvalidCursor(t *testing.T) {
	_, ts, c := newTestServer(t)
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if _, err := c.Submit(ctx, apiv1.SubmitRequest{Submitter: 0, Title: "t", At: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	page, err := c.StoriesAt(ctx, "", 2)
	if err != nil || page.NextCursor == "" {
		t.Fatalf("first page: %+v err=%v", page, err)
	}
	// A server over a bare platform mints cursors with no shard vector,
	// byte for byte the token it has always minted.
	if want := apiv1.Cursor("cwQEAQBQkd97"); page.NextCursor != want {
		t.Errorf("next_cursor %q, want %q", page.NextCursor, want)
	}

	expectInvalid := func(url string) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		var env apiv1.ErrorEnvelope
		_ = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || env.Error == nil || env.Error.Code != apiv1.CodeInvalidCursor {
			t.Errorf("%s: status=%d envelope=%+v", url, resp.StatusCode, env.Error)
		}
	}

	// Flip a character of the genuine token.
	tok := []byte(page.NextCursor)
	if tok[0] == 'A' {
		tok[0] = 'B'
	} else {
		tok[0] = 'A'
	}
	expectInvalid(ts.URL + "/v1/stories?cursor=" + string(tok))
	// Garbage.
	expectInvalid(ts.URL + "/v1/stories?cursor=garbage")
	// Replay against a different endpoint family.
	expectInvalid(ts.URL + "/v1/upcoming?cursor=" + string(page.NextCursor))
	// A shard vector: the cursor was minted under another layout.
	p, err := page.NextCursor.Decode(apiv1.CursorStories)
	if err != nil || len(p.ShardGens) != 0 {
		t.Fatalf("cursor %+v (err %v), want no shard vector", p, err)
	}
	p.ShardGens = []uint64{p.Gen}
	expectInvalid(ts.URL + "/v1/stories?cursor=" + string(p.Encode()))

	// The typed client surfaces the code too.
	var apiErr *apiv1.Error
	if _, err := c.StoriesAt(ctx, apiv1.Cursor(tok), 2); !errors.As(err, &apiErr) ||
		apiErr.Code != apiv1.CodeInvalidCursor {
		t.Errorf("client tampered-cursor err = %v", err)
	}
}

// TestV1RateLimitEnvelope checks the 429 path speaks the v1 envelope
// with a computed Retry-After in both the header and the body.
func TestV1RateLimitEnvelope(t *testing.T) {
	srv, _, _ := newTestServer(t)
	limiter := NewRateLimiter(0.5, 1) // one request, then a 2s refill
	ts := httptest.NewServer(limiter.Middleware(srv.Handler()))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var env apiv1.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request status %d", resp.StatusCode)
	}
	if env.Error == nil || env.Error.Code != apiv1.CodeRateLimited {
		t.Fatalf("envelope = %+v", env.Error)
	}
	if env.Error.RetryAfter < 1 || env.Error.RetryAfter > 3 {
		t.Errorf("retry_after = %d, want ~2s from the GCRA state", env.Error.RetryAfter)
	}
	if h := resp.Header.Get("Retry-After"); h == "" || h == "0" {
		t.Errorf("Retry-After header = %q", h)
	}
}

// TestV1BatchWrites exercises both batch endpoints: amortized success,
// per-item errors that do not abort the batch, and whole-batch
// rejection of oversized or empty requests. It runs over every store
// shape a server takes (the in-memory platform, an in-memory 4-shard
// store and a one-shard durable store), and all of them must return
// the same per-item results and serve the same front page afterwards.
func TestV1BatchWrites(t *testing.T) {
	g, err := graph.FromEdgeList(10, [][2]graph.NodeID{{1, 0}, {2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	pol := &digg.ClassicPromotion{VoteThreshold: 3, Window: digg.Day}
	stores := []struct {
		name string
		new  func(t *testing.T) digg.Store
	}{
		{"platform", func(*testing.T) digg.Store { return digg.NewPlatform(g, pol) }},
		{"sharded", func(*testing.T) digg.Store { return shard.New(g, pol, 4) }},
		{"durable", func(t *testing.T) digg.Store {
			s, err := shard.Create(t.TempDir(), digg.NewPlatform(g, pol), 1, nil,
				durable.Options{Policy: pol, Sync: wal.SyncOS, CheckpointEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			return s
		}},
	}
	var first *batchOutcome
	for _, sc := range stores {
		t.Run(sc.name, func(t *testing.T) {
			ts := httptest.NewServer(NewServer(sc.new(t), 100, nil).Handler())
			t.Cleanup(ts.Close)
			c := NewClient(ts.URL)
			c.Backoff = time.Millisecond
			got := batchWrites(t, c)
			if first == nil {
				first = &got
			} else if !reflect.DeepEqual(got, *first) {
				t.Fatalf("results differ from %s's:\n got %+v\nwant %+v", stores[0].name, got, *first)
			}
		})
	}
}

// batchOutcome is what one server answered in batchWrites.
type batchOutcome struct {
	Subs  []apiv1.BatchSubmitResult
	Diggs []apiv1.BatchDiggResult
	Front []apiv1.StorySummary
}

// batchWrites runs TestV1BatchWrites' scenario against one server.
func batchWrites(t *testing.T, c *Client) batchOutcome {
	t.Helper()
	ctx := context.Background()

	subs, err := c.SubmitBatch(ctx, apiv1.BatchSubmitRequest{Stories: []apiv1.SubmitRequest{
		{Submitter: 0, Title: "b0", Interest: 0.5, At: 10},
		{Submitter: 999, Title: "bad", At: 10}, // unknown user: per-item error
		{Submitter: 1, Title: "b1", Interest: 0.5, At: 11},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(subs.Results) != 3 {
		t.Fatalf("results = %+v", subs.Results)
	}
	if subs.Results[0].Story == nil || subs.Results[2].Story == nil {
		t.Fatalf("good submissions failed: %+v", subs.Results)
	}
	if subs.Results[1].Error == nil || subs.Results[1].Error.Code != apiv1.CodeUnknownUser {
		t.Fatalf("bad submission error = %+v", subs.Results[1].Error)
	}
	st0 := subs.Results[0].Story.ID

	diggs, err := c.DiggBatch(ctx, apiv1.BatchDiggRequest{Diggs: []apiv1.BatchDiggItem{
		{Story: st0, Voter: 1, At: 12},
		{Story: st0, Voter: 1, At: 13}, // duplicate: per-item error
		{Story: st0, Voter: 5, At: 14}, // third vote promotes (threshold 3)
		{Story: 999, Voter: 2, At: 14}, // missing story: per-item error
	}})
	if err != nil {
		t.Fatal(err)
	}
	r := diggs.Results
	if len(r) != 4 {
		t.Fatalf("results = %+v", r)
	}
	if !r[0].InNetwork || r[0].Votes != 2 {
		t.Errorf("vote 0 = %+v", r[0])
	}
	if r[1].Error == nil || r[1].Error.Code != apiv1.CodeAlreadyVoted {
		t.Errorf("vote 1 error = %+v", r[1].Error)
	}
	if !r[2].Promoted || r[2].Votes != 3 {
		t.Errorf("vote 2 = %+v", r[2])
	}
	if r[3].Error == nil || r[3].Error.Code != apiv1.CodeNotFound {
		t.Errorf("vote 3 error = %+v", r[3].Error)
	}

	// The batch's writes are immediately visible (republish happened).
	fp, err := c.FrontPage(ctx, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(fp) != 1 || fp[0].ID != st0 {
		t.Errorf("front page after batch = %+v", fp)
	}

	// Whole-batch validation.
	var apiErr *apiv1.Error
	if _, err := c.DiggBatch(ctx, apiv1.BatchDiggRequest{}); !errors.As(err, &apiErr) ||
		apiErr.Code != apiv1.CodeInvalidArgument {
		t.Errorf("empty batch err = %v", err)
	}
	over := apiv1.BatchDiggRequest{Diggs: make([]apiv1.BatchDiggItem, apiv1.MaxBatch+1)}
	if _, err := c.DiggBatch(ctx, over); !errors.As(err, &apiErr) ||
		apiErr.Code != apiv1.CodeInvalidArgument {
		t.Errorf("oversized batch err = %v", err)
	}
	return batchOutcome{Subs: subs.Results, Diggs: diggs.Results, Front: fp}
}

// counting304Transport counts 304 revalidations flowing through the
// client.
type counting304Transport struct {
	n304 atomic.Int32
}

func (t *counting304Transport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err == nil && resp.StatusCode == http.StatusNotModified {
		t.n304.Add(1)
	}
	return resp, err
}

// TestV1ClientConditionalGet checks the SDK replays captured ETags:
// an unchanged front page costs a 304 and is served from the client
// cache, and a write invalidates it transparently.
func TestV1ClientConditionalGet(t *testing.T) {
	_, ts, _ := newTestServer(t)
	ct := &counting304Transport{}
	c := NewClient(ts.URL)
	c.HTTPClient = &http.Client{Transport: ct, Timeout: 10 * time.Second}
	c.Backoff = time.Millisecond
	ctx := context.Background()

	if _, err := c.Submit(ctx, apiv1.SubmitRequest{Submitter: 0, Title: "a", At: 10}); err != nil {
		t.Fatal(err)
	}
	first, err := c.Upcoming(ctx, 10)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Upcoming(ctx, 10)
	if err != nil {
		t.Fatal(err)
	}
	if ct.n304.Load() != 1 {
		t.Fatalf("revalidations = %d, want 1", ct.n304.Load())
	}
	if len(first) != 1 || len(second) != 1 || first[0].ID != second[0].ID {
		t.Fatalf("cached page diverged: %+v vs %+v", first, second)
	}
	// A write moves the generation; the next GET misses and re-caches.
	if _, err := c.Submit(ctx, apiv1.SubmitRequest{Submitter: 1, Title: "b", At: 11}); err != nil {
		t.Fatal(err)
	}
	third, err := c.Upcoming(ctx, 10)
	if err != nil {
		t.Fatal(err)
	}
	if ct.n304.Load() != 1 {
		t.Fatalf("post-write revalidations = %d, want still 1 (must miss)", ct.n304.Load())
	}
	if len(third) != 2 {
		t.Fatalf("post-write page = %+v", third)
	}
}

// TestV1CursorCrawlUnderLiveWriter is the acceptance test for
// generation-stamped cursors: while the live simulation writer
// continuously submits, votes and promotes, full paginated crawls of
// /v1/stories, /v1/upcoming and /v1/frontpage must show no duplicate
// and no skipped story. Run with -race this also checks the locking
// discipline of the v1 read paths.
func TestV1CursorCrawlUnderLiveWriter(t *testing.T) {
	runCursorCrawlUnderLiveWriter(t, func(g *graph.Graph, pol digg.PromotionPolicy) digg.Store {
		return digg.NewPlatform(g, pol)
	})
}

// TestV1CursorCrawlUnderLiveWriterSharded runs the identical crawl
// assertions against a 4-way sharded store: the shard-generation
// vector in cursors and the merged scatter-gather views must preserve
// every pagination guarantee the single-platform store gives.
func TestV1CursorCrawlUnderLiveWriterSharded(t *testing.T) {
	runCursorCrawlUnderLiveWriter(t, func(g *graph.Graph, pol digg.PromotionPolicy) digg.Store {
		return shard.New(g, pol, 4)
	})
}

func runCursorCrawlUnderLiveWriter(t *testing.T, newStore func(*graph.Graph, digg.PromotionPolicy) digg.Store) {
	g, err := graph.PreferentialAttachment(rng.New(7), 1500, 4, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	p := newStore(g, &digg.ClassicPromotion{VoteThreshold: 12, Window: digg.Day})
	r := rng.New(8)
	for i := 0; i < 120; i++ {
		st, err := p.Submit(digg.UserID(r.Intn(1500)), fmt.Sprintf("seed-%d", i), 0.6, digg.Minutes(i))
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < 4+r.Intn(12); v++ {
			_, _ = p.Digg(st.ID, digg.UserID(r.Intn(1500)), digg.Minutes(i+v+1))
		}
	}
	svc, err := live.NewService(p, live.Config{Seed: 11, SubmissionsPerHour: 300, StartAt: 200})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(p, 200, nil)
	srv.AttachLive(svc)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		now := digg.Minutes(200)
		for {
			select {
			case <-stop:
				return
			default:
				now += 2
				if err := svc.StepTo(now); err != nil {
					t.Error(err)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}
	}()
	defer func() {
		close(stop)
		<-writerDone
	}()

	c := NewClient(ts.URL)
	c.Backoff = time.Millisecond
	ctx := context.Background()

	for round := 0; round < 3; round++ {
		// Stories: every id that existed when the crawl started must be
		// seen exactly once, in ascending order. The crawl stops once it
		// has covered the starting total — the live writer appends
		// faster than HTTP pages drain, so chasing the tail would never
		// terminate (which is itself evidence the cursor walk is live).
		startTotal := -1
		var ids []int
		for page, err := range c.Stories(ctx, 9) {
			if err != nil {
				t.Fatal(err)
			}
			if startTotal < 0 {
				startTotal = page.Total
			}
			for _, s := range page.Stories {
				ids = append(ids, int(s.ID))
			}
			if len(ids) >= startTotal {
				break
			}
		}
		for i := 1; i < len(ids); i++ {
			if ids[i] <= ids[i-1] {
				t.Fatalf("stories crawl duplicate/regression at %d: %v", i, ids[i-1:i+1])
			}
		}
		if len(ids) < startTotal {
			t.Fatalf("stories crawl skipped: saw %d of %d", len(ids), startTotal)
		}
		for i := 0; i < startTotal; i++ {
			if ids[i] != i {
				t.Fatalf("stories crawl missed id %d (got %d)", i, ids[i])
			}
		}

		// Upcoming: strictly descending ids — a story promoted away
		// between pages shifts nothing and nothing repeats. The page
		// budget bounds the crawl against the unbounded live corpus;
		// the invariant holds for however far it got.
		prev := int64(1 << 62)
		pages := 0
		for page, err := range c.UpcomingPages(ctx, 7) {
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range page.Stories {
				if int64(s.ID) >= prev {
					t.Fatalf("upcoming crawl duplicate/skip: id %d after %d", s.ID, prev)
				}
				prev = int64(s.ID)
				if s.Promoted {
					t.Fatalf("promoted story %d served in upcoming", s.ID)
				}
			}
			if pages++; pages >= 40 {
				break
			}
		}

		// Front page: promotion-order indices are append-only, so a
		// crawl must never repeat a story even as promotions land.
		seen := map[int]bool{}
		pages = 0
		for page, err := range c.FrontPagePages(ctx, 7) {
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range page.Stories {
				if seen[int(s.ID)] {
					t.Fatalf("frontpage crawl duplicate story %d", s.ID)
				}
				seen[int(s.ID)] = true
				if !s.Promoted {
					t.Fatalf("unpromoted story %d on front page", s.ID)
				}
			}
			if pages++; pages >= 40 {
				break
			}
		}
		if len(seen) == 0 {
			t.Fatal("frontpage crawl saw nothing")
		}
	}
}

// TestV1TopUsersPastRenderDepth crawls a reputation ranking longer
// than the 1,024 entries views once pre-rendered (past which a locked
// fallback used to answer): the concatenation must equal the store's
// ranking — no duplicates, no gaps, one total throughout.
func TestV1TopUsersPastRenderDepth(t *testing.T) {
	const users = 1500
	g, err := graph.FromEdgeList(users, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := digg.NewPlatform(g, &digg.ClassicPromotion{VoteThreshold: 2, Window: digg.Day})
	// Every user owns 1-3 promoted stories (the submitter's vote plus
	// one more promotes), so the ranking has ties to order.
	at := digg.Minutes(1)
	for u := 0; u < users; u++ {
		for k := 0; k <= u%3; k++ {
			st, err := p.Submit(digg.UserID(u), fmt.Sprintf("u%d-%d", u, k), 0.5, at)
			if err != nil {
				t.Fatal(err)
			}
			if res, err := p.Digg(st.ID, digg.UserID((u+1)%users), at+1); err != nil || !res.Promoted {
				t.Fatalf("story %d: digg = %+v, %v", st.ID, res, err)
			}
			at += 2
		}
	}
	want := p.TopUsers(users)
	if len(want) != users {
		t.Fatalf("ranked %d users, want %d", len(want), users)
	}
	ts := httptest.NewServer(NewServer(p, at, nil).Handler())
	defer ts.Close()
	c := NewClient(ts.URL)

	// 300-entry pages: the fourth straddles the old 1,024-entry depth.
	var got []digg.UserID
	seen := make(map[digg.UserID]bool, users)
	for page, err := range c.TopUsersPages(context.Background(), 300) {
		if err != nil {
			t.Fatal(err)
		}
		if page.Total != users {
			t.Fatalf("page at %d: total %d, want %d", len(got), page.Total, users)
		}
		for _, u := range page.Users {
			if seen[u] {
				t.Fatalf("user %d served twice", u)
			}
			seen[u] = true
		}
		got = append(got, page.Users...)
	}
	if len(got) != len(want) {
		t.Fatalf("crawl saw %d users, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rank %d: got user %d, want %d", i, got[i], want[i])
		}
	}
}
