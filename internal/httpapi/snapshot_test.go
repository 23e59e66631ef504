package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"diggsim/internal/apiv1"
	"diggsim/internal/digg"
	"diggsim/internal/graph"
	"diggsim/internal/live"
	"diggsim/internal/rng"
)

// TestManualEncodersMatchEncodingJSON pins the hand-rolled snapshot
// encoders to the reflection-based wire format of the types.go
// structs, including string escaping and the promoted_at omitempty.
func TestManualEncodersMatchEncodingJSON(t *testing.T) {
	stories := []*digg.Story{
		{ID: 0, Title: "plain", Submitter: 3, SubmittedAt: 17,
			Votes: []digg.Vote{{Voter: 3, At: 17}, {Voter: 9, At: 20}}},
		{ID: 1, Title: "quotes \" and \\ and\ttabs\nnewline\x01ctl", Submitter: 0, SubmittedAt: 0,
			Promoted: true, PromotedAt: 44,
			Votes: []digg.Vote{{Voter: 0, At: 0}}},
		{ID: 2, Title: "", Submitter: 1, SubmittedAt: 5, Promoted: true, PromotedAt: 0,
			Votes: []digg.Vote{{Voter: 1, At: 5}}},
	}
	for _, s := range stories {
		want, err := json.Marshal(summarize(s))
		if err != nil {
			t.Fatal(err)
		}
		if got := appendSummary(nil, s); string(got) != string(want) {
			t.Errorf("summary %d:\n got %s\nwant %s", s.ID, got, want)
		}
		want, err = json.Marshal(detail(s))
		if err != nil {
			t.Fatal(err)
		}
		if got := appendDetail(nil, s); string(got) != string(want) {
			t.Errorf("detail %d:\n got %s\nwant %s", s.ID, got, want)
		}
	}
}

func TestQueryIntRaw(t *testing.T) {
	cases := []struct {
		raw     string
		def     int
		want    int
		wantErr bool
	}{
		{"", 15, 15, false},
		{"limit=3", 15, 3, false},
		{"offset=9&limit=3", 15, 3, false},
		{"limit=3&limit=9", 15, 3, false},
		{"limit=-2", 15, -2, false},
		{"limit=zebra", 15, 0, true},
		{"limit=%31%35", 15, 15, false},
		{"limit=+5", 15, 0, true}, // '+' decodes to a space, like url.Values
		{"limit=", 15, 0, true},
		{"other=7", 15, 15, false},
		{"limit", 15, 15, false},
	}
	for _, c := range cases {
		got, err := queryIntRaw(c.raw, "limit", c.def)
		if (err != nil) != c.wantErr || (err == nil && got != c.want) {
			t.Errorf("queryIntRaw(%q) = %d, %v; want %d (err=%v)", c.raw, got, err, c.want, c.wantErr)
		}
	}
}

func TestEtagMatches(t *testing.T) {
	cases := []struct {
		header string
		want   bool
	}{
		{`"g7"`, true},
		{`W/"g7"`, true},
		{`"g8", "g7"`, true},
		{`"g8" , W/"g7"`, true},
		{`*`, true},
		{``, false},
		{`"g8"`, false},
		{`"g77"`, false},
	}
	for _, c := range cases {
		if got := etagMatches(c.header, `"g7"`); got != c.want {
			t.Errorf("etagMatches(%q) = %v want %v", c.header, got, c.want)
		}
	}
}

// TestConditionalGet exercises the scraper-politeness satellite: a
// crawl that presents the ETag it saw gets a body-free 304 until a
// write moves the platform generation.
func TestConditionalGet(t *testing.T) {
	_, ts, c := newTestServer(t)
	ctx := context.Background()
	// One promoted story (threshold 3: the submitter's vote plus two)
	// and one upcoming, so both queues serve a non-empty first page.
	st, err := c.Submit(ctx, apiv1.SubmitRequest{Submitter: 0, Title: "a", At: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i, voter := range []digg.UserID{1, 5} {
		if _, err := c.Digg(ctx, st.ID, apiv1.DiggRequest{Voter: voter, At: int64(11 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Submit(ctx, apiv1.SubmitRequest{Submitter: 0, Title: "b", At: 10}); err != nil {
		t.Fatal(err)
	}

	get := func(path, inm string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	for _, path := range []string{"/v1/frontpage?limit=10", "/v1/upcoming?limit=10"} {
		resp := get(path, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		etag := resp.Header.Get("ETag")
		if etag == "" || !strings.HasPrefix(etag, `"g`) {
			t.Fatalf("%s: missing generation ETag, got %q", path, etag)
		}
		if cc := resp.Header.Get("Cache-Control"); cc != "no-cache" {
			t.Errorf("%s: Cache-Control = %q", path, cc)
		}
		body, _ := io.ReadAll(resp.Body)
		if len(body) == 0 {
			t.Fatalf("%s: empty body", path)
		}

		// Revalidation with the current ETag: 304, no body.
		resp = get(path, etag)
		if resp.StatusCode != http.StatusNotModified {
			t.Fatalf("%s: conditional status %d want 304", path, resp.StatusCode)
		}
		if b, _ := io.ReadAll(resp.Body); len(b) != 0 {
			t.Fatalf("%s: 304 carried a body: %q", path, b)
		}

		// A write moves the generation: same validator now misses.
		if _, err := c.Submit(ctx, apiv1.SubmitRequest{Submitter: 1, Title: "more-" + path, At: 11}); err != nil {
			t.Fatal(err)
		}
		resp = get(path, etag)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: post-write conditional status %d want 200", path, resp.StatusCode)
		}
		if newTag := resp.Header.Get("ETag"); newTag == etag {
			t.Fatalf("%s: ETag did not change after write", path)
		}
	}
}

// TestUpcomingServeTimeFilter checks that the snapshot's upcoming
// queue respects the serving clock without republication: a
// future-dated story is hidden until the clock passes its submission
// time, with no intervening write.
func TestUpcomingServeTimeFilter(t *testing.T) {
	srv, _, c := newTestServer(t)
	ctx := context.Background()
	if _, err := c.Submit(ctx, apiv1.SubmitRequest{Submitter: 0, Title: "now", At: 50}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(ctx, apiv1.SubmitRequest{Submitter: 1, Title: "future", At: 500}); err != nil {
		t.Fatal(err)
	}
	up, err := c.Upcoming(ctx, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(up) != 1 || up[0].Title != "now" {
		t.Fatalf("upcoming at t=100 = %+v", up)
	}
	// Advance the clock only — no write, no republication.
	srv.SetNow(600)
	up, err = c.Upcoming(ctx, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(up) != 2 || up[0].Title != "future" {
		t.Fatalf("upcoming at t=600 = %+v", up)
	}
}

// TestSnapshotFallbackBeyondRenderDepth asks for whole queues deeper
// than the 100 entries views once pre-rendered (beyond which a locked
// fallback used to answer): a limit past that depth must serve every
// entry and agree with a short first page on the shared prefix.
func TestSnapshotFallbackBeyondRenderDepth(t *testing.T) {
	g, err := graph.FromEdgeList(10, [][2]graph.NodeID{{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	p := digg.NewPlatform(g, digg.NeverPromote{})
	const n = 140
	for i := 0; i < n; i++ {
		st := &digg.Story{
			ID: digg.StoryID(i), Title: fmt.Sprintf("s%d", i), Submitter: digg.UserID(i % 10),
			SubmittedAt: digg.Minutes(i),
			Votes:       []digg.Vote{{Voter: digg.UserID(i % 10), At: digg.Minutes(i)}},
		}
		st.Promoted = i%2 == 0 // half promoted, half upcoming
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
	short, err := c.FrontPage(ctx, 10)
	if err != nil {
		t.Fatal(err)
	}
	full, err := c.FrontPage(ctx, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(short) != 10 || len(full) != n/2 {
		t.Fatalf("front pages: short=%d full=%d want 10, %d", len(short), len(full), n/2)
	}
	if !reflect.DeepEqual(short, full[:10]) {
		t.Error("short and full front-page prefixes disagree")
	}
	upShort, err := c.Upcoming(ctx, 10)
	if err != nil {
		t.Fatal(err)
	}
	upFull, err := c.Upcoming(ctx, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(upShort) != 10 || len(upFull) != n/2 {
		t.Fatalf("upcoming: short=%d full=%d want 10, %d", len(upShort), len(upFull), n/2)
	}
	if !reflect.DeepEqual(upShort, upFull[:10]) {
		t.Error("short and full upcoming prefixes disagree")
	}
}

// TestStoryDetailNewerThanSnapshot covers the one read that still takes
// the store lock: a story committed to the store but not yet
// republished exists only there, so /v1/stories/{id} must answer it
// from a locked read. After republication the detail cache serves the
// same value.
func TestStoryDetailNewerThanSnapshot(t *testing.T) {
	srv, ts, _ := newTestServer(t)
	srv.mu.Lock()
	st, err := srv.store.Submit(1, "unpublished", 0.5, 20)
	if err == nil {
		_, err = srv.store.Digg(st.ID, 2, 21)
	}
	var want apiv1.StoryDetail
	if err == nil {
		want = detail(st)
	}
	srv.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(srv.snap.view.Load().storyVer); int(st.ID) < n {
		t.Fatalf("story %d is already in the published view (%d stories)", st.ID, n)
	}
	get := func(stage string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/stories/" + strconv.Itoa(int(st.ID)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", stage, resp.StatusCode)
		}
		var got apiv1.StoryDetail
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: got %+v, want %+v", stage, got, want)
		}
	}
	get("locked read")
	srv.republish()
	get("cache fill")
	get("cache hit")
	if e := srv.snap.details.Load().slots[st.ID].Load(); e == nil || e.ver != srv.snap.view.Load().storyVer[st.ID] {
		t.Fatalf("detail cache entry after republish = %+v", e)
	}
}

// TestSnapshotConsistencyUnderLiveWrites is the torn-read regression
// test: while the live simulation writer continuously mutates the
// platform, the stories array of every front page served must be
// byte-identical to some atomically published snapshot (identified by
// its generation ETag), and the generations observed by any single
// client must be monotonically non-decreasing. Run with -race this
// also checks the locking discipline of the publish path.
func TestSnapshotConsistencyUnderLiveWrites(t *testing.T) {
	g, err := graph.PreferentialAttachment(rng.New(7), 1500, 4, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	p := digg.NewPlatform(g, &digg.ClassicPromotion{VoteThreshold: 12, Window: digg.Day})
	r := rng.New(8)
	for i := 0; i < 60; i++ {
		st, err := p.Submit(digg.UserID(r.Intn(1500)), fmt.Sprintf("seed-%d", i), 0.6, digg.Minutes(i))
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < 4+r.Intn(12); v++ {
			_, _ = p.Digg(st.ID, digg.UserID(r.Intn(1500)), digg.Minutes(i+v+1))
		}
	}
	svc, err := live.NewService(p, live.Config{Seed: 11, SubmissionsPerHour: 300, StartAt: 100})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(p, 100, nil)
	srv.AttachLive(svc)

	// Record every published generation's first front page, rendered
	// from the view's promotion order and summaries, before serving
	// starts.
	const limit = 10
	var pubMu sync.Mutex
	pubs := make(map[uint64]string)
	srv.snap.onPublish = func(v *ReadView) {
		b := []byte{'['}
		for k := 0; k < limit && k < len(v.promoted); k++ {
			if k > 0 {
				b = append(b, ',')
			}
			b = append(b, v.summaries[v.promoted[len(v.promoted)-1-k]]...)
		}
		b = append(b, ']')
		pubMu.Lock()
		pubs[v.Gen] = string(b)
		pubMu.Unlock()
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		now := digg.Minutes(100)
		for {
			select {
			case <-stop:
				return
			default:
				now += 3
				if err := svc.StepTo(now); err != nil {
					t.Error(err)
					return
				}
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	var etagged atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{}
			lastGen := uint64(0)
			for i := 0; i < 150; i++ {
				resp, err := client.Get(ts.URL + "/v1/frontpage?limit=" + strconv.Itoa(limit))
				if err != nil {
					errs <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				etag := resp.Header.Get("ETag")
				if etag == "" {
					continue // empty front page: no generation-stamped body
				}
				gen, err := strconv.ParseUint(strings.Trim(etag, `"g`), 10, 64)
				if err != nil {
					errs <- fmt.Errorf("unparseable ETag %q", etag)
					return
				}
				if gen < lastGen {
					errs <- fmt.Errorf("generation went backwards: %d after %d", gen, lastGen)
					return
				}
				lastGen = gen
				pubMu.Lock()
				want, ok := pubs[gen]
				pubMu.Unlock()
				if !ok {
					errs <- fmt.Errorf("served generation %d was never published", gen)
					return
				}
				var page struct{ Stories json.RawMessage }
				if err := json.Unmarshal(body, &page); err != nil {
					errs <- fmt.Errorf("undecodable page at generation %d: %v", gen, err)
					return
				}
				if string(page.Stories) != want {
					errs <- fmt.Errorf("torn read at generation %d:\n got %s\nwant %s", gen, page.Stories, want)
					return
				}
				etagged.Add(1)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-writerDone
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if etagged.Load() == 0 {
		t.Fatal("no snapshot-served responses observed; stress test exercised nothing")
	}
	pubMu.Lock()
	generations := len(pubs)
	pubMu.Unlock()
	if generations < 2 {
		t.Fatalf("only %d generations published; writer did not evolve the site", generations)
	}
}
