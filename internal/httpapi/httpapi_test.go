package httpapi

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"diggsim/internal/apiv1"
	"diggsim/internal/digg"
	"diggsim/internal/graph"
)

// newTestServer builds a tiny live platform:
// users 0..9; 1 and 2 are fans of 0; threshold-3 promotion.
func newTestServer(t *testing.T) (*Server, *httptest.Server, *Client) {
	t.Helper()
	g, err := graph.FromEdgeList(10, [][2]graph.NodeID{{1, 0}, {2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	p := digg.NewPlatform(g, &digg.ClassicPromotion{VoteThreshold: 3, Window: digg.Day})
	srv := NewServer(p, 100, nil)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)
	c.Backoff = time.Millisecond
	return srv, ts, c
}

func TestHealth(t *testing.T) {
	_, _, c := newTestServer(t)
	if err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitAndFetchStory(t *testing.T) {
	_, _, c := newTestServer(t)
	ctx := context.Background()
	created, err := c.Submit(ctx, apiv1.SubmitRequest{Submitter: 0, Title: "hello", Interest: 0.5, At: 10})
	if err != nil {
		t.Fatal(err)
	}
	if created.Title != "hello" || created.Submitter != 0 || created.Votes != 1 {
		t.Errorf("created = %+v", created)
	}
	got, err := c.Story(ctx, created.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != created.ID || len(got.VoteList) != 1 || got.VoteList[0].Voter != 0 {
		t.Errorf("story = %+v", got)
	}
}

func TestDiggFlow(t *testing.T) {
	_, _, c := newTestServer(t)
	ctx := context.Background()
	st, err := c.Submit(ctx, apiv1.SubmitRequest{Submitter: 0, Title: "t", At: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Fan vote: in-network.
	res, err := c.Digg(ctx, st.ID, apiv1.DiggRequest{Voter: 1, At: 11})
	if err != nil {
		t.Fatal(err)
	}
	if !res.InNetwork || res.Promoted {
		t.Errorf("fan vote = %+v", res)
	}
	// Third vote promotes (threshold 3).
	res, err = c.Digg(ctx, st.ID, apiv1.DiggRequest{Voter: 5, At: 12})
	if err != nil {
		t.Fatal(err)
	}
	if res.InNetwork || !res.Promoted {
		t.Errorf("promoting vote = %+v", res)
	}
	// Duplicate vote: 409.
	_, err = c.Digg(ctx, st.ID, apiv1.DiggRequest{Voter: 5, At: 13})
	apiErr, ok := err.(*apiv1.Error)
	if !ok || apiErr.StatusCode != http.StatusConflict {
		t.Errorf("duplicate vote err = %v", err)
	}
	// Front page now has the story.
	fp, err := c.FrontPage(ctx, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(fp) != 1 || fp[0].ID != st.ID || !fp[0].Promoted {
		t.Errorf("front page = %+v", fp)
	}
}

func TestUpcomingQueue(t *testing.T) {
	srv, _, c := newTestServer(t)
	ctx := context.Background()
	a, _ := c.Submit(ctx, apiv1.SubmitRequest{Submitter: 0, Title: "a", At: 10})
	b, _ := c.Submit(ctx, apiv1.SubmitRequest{Submitter: 1, Title: "b", At: 20})
	up, err := c.Upcoming(ctx, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(up) != 2 || up[0].ID != b.ID || up[1].ID != a.ID {
		t.Errorf("upcoming = %+v", up)
	}
	// Clock before submissions hides them.
	srv.SetNow(5)
	up, err = c.Upcoming(ctx, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(up) != 0 {
		t.Errorf("time-traveling queue = %+v", up)
	}
}

func TestUserEndpoints(t *testing.T) {
	_, _, c := newTestServer(t)
	ctx := context.Background()
	info, err := c.User(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.Fans != 2 || info.Friends != 0 {
		t.Errorf("user info = %+v", info)
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
}

func TestErrorStatuses(t *testing.T) {
	_, _, c := newTestServer(t)
	ctx := context.Background()
	// Missing story: 404.
	_, err := c.Story(ctx, 999)
	if apiErr, ok := err.(*apiv1.Error); !ok || apiErr.StatusCode != http.StatusNotFound {
		t.Errorf("missing story err = %v", err)
	}
	// Missing user: 404.
	_, err = c.User(ctx, 999)
	if apiErr, ok := err.(*apiv1.Error); !ok || apiErr.StatusCode != http.StatusNotFound {
		t.Errorf("missing user err = %v", err)
	}
	// Unknown submitter: 400.
	_, err = c.Submit(ctx, apiv1.SubmitRequest{Submitter: 999, Title: "x", At: 1})
	if apiErr, ok := err.(*apiv1.Error); !ok || apiErr.StatusCode != http.StatusBadRequest {
		t.Errorf("bad submitter err = %v", err)
	}
	// Bad limit query and bad path id: 400 invalid_argument.
	for _, path := range []string{"/v1/frontpage?limit=zebra", "/v1/stories/abc"} {
		resp, err := http.Get(c.BaseURL + path)
		if err != nil {
			t.Fatal(err)
		}
		var env apiv1.ErrorEnvelope
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: decoding error envelope: %v", path, err)
		}
		if resp.StatusCode != http.StatusBadRequest || env.Error == nil || env.Error.Code != apiv1.CodeInvalidArgument {
			t.Errorf("%s = %d %+v, want 400 %s", path, resp.StatusCode, env.Error, apiv1.CodeInvalidArgument)
		}
	}
}

func TestClientRetriesOn5xx(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok"))
	}))
	defer ts.Close()
	c := NewClient(ts.URL)
	c.Backoff = time.Millisecond
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}
	if calls.Load() != 3 {
		t.Errorf("calls = %d want 3", calls.Load())
	}
}

func TestClientDoesNotRetry4xx(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusNotFound)
	}))
	defer ts.Close()
	c := NewClient(ts.URL)
	c.Backoff = time.Millisecond
	if err := c.Health(context.Background()); err == nil {
		t.Fatal("404 not surfaced")
	}
	if calls.Load() != 1 {
		t.Errorf("calls = %d want 1 (no retry on 4xx)", calls.Load())
	}
}

func TestClientGivesUpAfterRetries(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer ts.Close()
	c := NewClient(ts.URL)
	c.MaxRetries = 2
	c.Backoff = time.Millisecond
	if err := c.Health(context.Background()); err == nil {
		t.Fatal("persistent 500 not surfaced")
	}
	if calls.Load() != 3 {
		t.Errorf("calls = %d want 3 (1 + 2 retries)", calls.Load())
	}
}

func TestClientContextCancellation(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer ts.Close()
	c := NewClient(ts.URL)
	c.MaxRetries = 100
	c.Backoff = 50 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := c.Health(ctx)
	if err == nil {
		t.Fatal("cancelled request succeeded")
	}
	if time.Since(start) > 2*time.Second {
		t.Error("cancellation did not stop retry loop promptly")
	}
}

func TestScrapeEndToEnd(t *testing.T) {
	// Build a live platform with a couple of stories, then scrape it
	// and check the reconstruction.
	g, err := graph.FromEdgeList(20, [][2]graph.NodeID{{1, 0}, {2, 0}, {3, 1}})
	if err != nil {
		t.Fatal(err)
	}
	p := digg.NewPlatform(g, &digg.ClassicPromotion{VoteThreshold: 3, Window: digg.Day})
	s1, _ := p.Submit(0, "one", 0.5, 10)
	p.Digg(s1.ID, 1, 11)
	p.Digg(s1.ID, 5, 12) // promotes (3 votes)
	s2, _ := p.Submit(3, "two", 0.5, 20)
	p.Digg(s2.ID, 6, 21)

	srv := NewServer(p, 100, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)
	c.Backoff = time.Millisecond

	ds, err := Scrape(context.Background(), c, ScrapeConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Stories) != 2 {
		t.Fatalf("scraped %d stories", len(ds.Stories))
	}
	// Chronological vote lists with submitter first.
	for _, s := range ds.Stories {
		if s.Votes[0].Voter != s.Submitter {
			t.Errorf("story %d: first vote %d != submitter %d", s.ID, s.Votes[0].Voter, s.Submitter)
		}
	}
	// Fan edges among voters were reconstructed: 1 -> 0 must exist.
	if !ds.Graph.HasEdge(1, 0) {
		t.Error("fan link 1->0 lost in scrape")
	}
	// Promotion state survived.
	var promoted *digg.Story
	for _, s := range ds.Stories {
		if s.ID == s1.ID {
			promoted = s
		}
	}
	if promoted == nil || !promoted.Promoted {
		t.Error("promoted story lost promotion state")
	}
	// Samples recovered.
	if len(ds.FrontPage) != 1 {
		t.Errorf("front-page sample = %d", len(ds.FrontPage))
	}
}

func TestScrapeAllPaginates(t *testing.T) {
	g, err := graph.FromEdgeList(30, [][2]graph.NodeID{{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	p := digg.NewPlatform(g, digg.NeverPromote{})
	const n = 23
	for i := 0; i < n; i++ {
		if _, err := p.Submit(digg.UserID(i%10), "t", 0.5, digg.Minutes(i)); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer(p, 100, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)
	c.Backoff = time.Millisecond
	// PageSize 7 forces several pages (23 = 3*7 + 2).
	ds, err := Scrape(context.Background(), c, ScrapeConfig{All: true, PageSize: 7, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Stories) != n {
		t.Fatalf("scraped %d stories want %d", len(ds.Stories), n)
	}
	seen := map[digg.StoryID]bool{}
	for _, s := range ds.Stories {
		if seen[s.ID] {
			t.Fatalf("duplicate story %d", s.ID)
		}
		seen[s.ID] = true
	}
}

func TestScrapePropagatesErrors(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
	}))
	defer ts.Close()
	c := NewClient(ts.URL)
	c.Backoff = time.Millisecond
	if _, err := Scrape(context.Background(), c, ScrapeConfig{}); err == nil {
		t.Fatal("scrape of broken server succeeded")
	}
}

func TestFetchAllOrderAndBound(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	var inFlight, maxInFlight atomic.Int32
	out, err := fetchAll(context.Background(), 5, items, func(ctx context.Context, v int) (int, error) {
		cur := inFlight.Add(1)
		for {
			prev := maxInFlight.Load()
			if cur <= prev || maxInFlight.CompareAndSwap(prev, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		return v * 2, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*2 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	if maxInFlight.Load() > 5 {
		t.Errorf("worker bound exceeded: %d", maxInFlight.Load())
	}
}

func TestFetchAllStopsOnError(t *testing.T) {
	items := make([]int, 1000)
	var calls atomic.Int32
	_, err := fetchAll(context.Background(), 4, items, func(ctx context.Context, v int) (int, error) {
		if calls.Add(1) == 10 {
			return 0, context.DeadlineExceeded
		}
		return 0, nil
	})
	if err == nil {
		t.Fatal("error swallowed")
	}
	if calls.Load() > 500 {
		t.Errorf("error did not stop work: %d calls", calls.Load())
	}
}
