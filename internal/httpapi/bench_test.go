package httpapi

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"diggsim/internal/apiv1"
	"diggsim/internal/digg"
	"diggsim/internal/durable"
	"diggsim/internal/graph"
	"diggsim/internal/live"
	"diggsim/internal/obs"
	"diggsim/internal/repl"
	"diggsim/internal/rng"
	"diggsim/internal/shard"
	"diggsim/internal/wal"
)

// benchPlatform builds a platform with enough stories and votes for
// realistic list/detail payloads. It takes testing.TB so the 0-alloc
// guard test shares the exact corpus the benchmarks measure.
func benchPlatform(tb testing.TB) *digg.Platform {
	tb.Helper()
	g, err := graph.PreferentialAttachment(rng.New(3), 2000, 4, 0.3)
	if err != nil {
		tb.Fatal(err)
	}
	p := digg.NewPlatform(g, &digg.ClassicPromotion{VoteThreshold: 10, Window: digg.Day})
	r := rng.New(4)
	for i := 0; i < 300; i++ {
		st, err := p.Submit(digg.UserID(r.Intn(2000)), fmt.Sprintf("story-%d", i), 0.5, digg.Minutes(i))
		if err != nil {
			tb.Fatal(err)
		}
		votes := 5 + r.Intn(30)
		for v := 0; v < votes; v++ {
			_, _ = p.Digg(st.ID, digg.UserID(r.Intn(2000)), digg.Minutes(i+v+1))
		}
	}
	return p
}

// benchWriter is a reusable allocation-free ResponseWriter, so the
// benchmarks measure the handlers rather than httptest.NewRecorder
// buffer churn (~2µs and a dozen allocs per op on this machine).
type benchWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *benchWriter) Header() http.Header { return w.h }

func (w *benchWriter) WriteHeader(code int) { w.status = code }

func (w *benchWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

func (w *benchWriter) reset() {
	w.status = http.StatusOK
	w.n = 0
	clear(w.h)
}

// benchServe drives the handler over the path mix in parallel with
// per-goroutine reused requests and writers: the measured cost is the
// routing plus the handler, nothing else.
func benchServe(b *testing.B, h http.Handler, paths []string) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		reqs := make([]*http.Request, len(paths))
		for i, p := range paths {
			reqs[i] = httptest.NewRequest(http.MethodGet, p, nil)
		}
		w := &benchWriter{h: make(http.Header, 4)}
		i := 0
		for pb.Next() {
			w.reset()
			h.ServeHTTP(w, reqs[i%len(reqs)])
			if w.status != http.StatusOK {
				b.Fatalf("status %d for %s", w.status, paths[i%len(reqs)])
			}
			i++
		}
	})
}

// readMix is the scraper-shaped hot-path mix.
var readMix = []string{
	"/v1/frontpage?limit=15",
	"/v1/upcoming?limit=15",
	"/v1/stories/42",
	"/v1/users/7",
}

// BenchmarkServedReads measures read-handler throughput on a static
// server: the scraping hot path.
func BenchmarkServedReads(b *testing.B) {
	p := benchPlatform(b)
	srv := NewServer(p, 400, nil)
	benchServe(b, srv.Handler(), readMix)
}

// BenchmarkServedReadsFollower measures the same read mix served off
// a replication follower with a live tail attached: the snapshot read
// path plus the replica-lag middleware. The acceptance bar is within
// 10% of BenchmarkServedReads — follower reads must cost what primary
// reads cost.
func BenchmarkServedReadsFollower(b *testing.B) {
	p := benchPlatform(b)
	primary, err := shard.Create(b.TempDir(), p, 1, []byte(`{"bench":"repl"}`), durable.Options{
		Policy:          &digg.ClassicPromotion{VoteThreshold: 10, Window: digg.Day},
		Sync:            wal.SyncOS,
		CheckpointEvery: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer primary.Close()

	src := &repl.Source{
		Shards:    repl.SourceShardsOf(primary),
		Heartbeat: 10 * time.Millisecond, // dense lag observations for the quantile report
	}
	mux := http.NewServeMux()
	mux.Handle("/repl/v1/", http.StripPrefix("/repl/v1", src.Handler()))
	ts := httptest.NewServer(mux)
	defer ts.Close()
	defer src.Close()

	fdir := b.TempDir()
	tr := &repl.HTTPTransport{Base: ts.URL}
	node, err := repl.Bootstrap(context.Background(), tr, fdir, durable.Options{
		Policy: &digg.ClassicPromotion{VoteThreshold: 10, Window: digg.Day},
		Sync:   wal.SyncOS,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer node.Close()
	f := repl.NewFollower(node.Target, tr, repl.Options{StateDir: fdir, Primary: ts.URL})
	f.Start()
	defer f.Stop()
	deadline := time.Now().Add(20 * time.Second)
	for node.Target.AppliedLSN(0) < primary.ShardAppliedLSN(0) {
		if time.Now().After(deadline) {
			b.Fatalf("follower never caught up (err: %v)", f.Err())
		}
		time.Sleep(time.Millisecond)
	}

	srv := NewServer(node.Store(), 400, nil)
	srv.AttachRepl(f, 0)
	benchServe(b, srv.Handler(), readMix)
	b.StopTimer()

	// Replication lag quantiles observed at each heartbeat during the
	// run; cmd/benchjson lifts the -ns metrics into quantiles_ns.
	lag := obs.Default.Histogram("diggsim_repl_lag_seconds", `shard="0"`,
		"Replication lag observed at each heartbeat.").Snapshot()
	if lag.Count() > 0 {
		b.ReportMetric(lag.Quantile(0.50), "lag-p50-ns")
		b.ReportMetric(lag.Quantile(0.99), "lag-p99-ns")
	}
}

// BenchmarkServedReadsWhileLive measures the same read mix while the
// live simulation keeps mutating the platform. The service steps every
// 100 reads, which republishes the snapshot, so each batch of reads
// starts on a fresh snapshot and its first read observes the freshness
// spans. The timer is stopped around each step: the rebuild's time and
// allocations belong to the writer, and the 0 allocs/op guard on this
// benchmark counts reads only.
func BenchmarkServedReadsWhileLive(b *testing.B) {
	p := benchPlatform(b)
	svc, err := live.NewService(p, live.Config{Seed: 6, SubmissionsPerHour: 120, StartAt: 400})
	if err != nil {
		b.Fatal(err)
	}
	srv := NewServer(p, 400, nil)
	srv.AttachLive(svc)
	h := srv.Handler()
	reqs := make([]*http.Request, len(readMix))
	for i, path := range readMix {
		reqs[i] = httptest.NewRequest(http.MethodGet, path, nil)
	}
	w := &benchWriter{h: make(http.Header, 4)}
	now := digg.Minutes(400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%100 == 0 {
			b.StopTimer()
			now += 5
			if err := svc.StepTo(now); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		w.reset()
		h.ServeHTTP(w, reqs[i%len(reqs)])
		if w.status != http.StatusOK {
			b.Fatalf("status %d for %s", w.status, readMix[i%len(reqs)])
		}
	}
}

// BenchmarkFrontPageHandler isolates the hottest endpoint. The
// acceptance bar for the snapshot read path is 0 allocs/op here.
func BenchmarkFrontPageHandler(b *testing.B) {
	p := benchPlatform(b)
	srv := NewServer(p, 400, nil)
	benchServe(b, srv.Handler(), []string{"/v1/frontpage?limit=15"})
}

// BenchmarkUpcomingHandler isolates the upcoming queue's first page.
func BenchmarkUpcomingHandler(b *testing.B) {
	p := benchPlatform(b)
	srv := NewServer(p, 400, nil)
	benchServe(b, srv.Handler(), []string{"/v1/upcoming?limit=15"})
}

// BenchmarkStoryListHandler isolates the paginated story listing: a
// 50-story page resumed from a cursor at position 100.
func BenchmarkStoryListHandler(b *testing.B) {
	p := benchPlatform(b)
	srv := NewServer(p, 400, nil)
	cursor := apiv1.CursorPayload{Kind: apiv1.CursorStories, Gen: p.Generation(), Pos: 100}.Encode()
	benchServe(b, srv.Handler(), []string{"/v1/stories?limit=50&cursor=" + string(cursor)})
}

// BenchmarkStoryDetailHandler isolates the story detail endpoint
// (vote-list payload).
func BenchmarkStoryDetailHandler(b *testing.B) {
	p := benchPlatform(b)
	srv := NewServer(p, 400, nil)
	benchServe(b, srv.Handler(), []string{"/v1/stories/42"})
}

// BenchmarkFrontPageHandlerWhileLive is the front-page endpoint under
// a continuously mutating platform.
func BenchmarkFrontPageHandlerWhileLive(b *testing.B) {
	p := benchPlatform(b)
	svc, err := live.NewService(p, live.Config{Seed: 6, SubmissionsPerHour: 120, StartAt: 400})
	if err != nil {
		b.Fatal(err)
	}
	srv := NewServer(p, 400, nil)
	srv.AttachLive(svc)
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		now := digg.Minutes(400)
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
				now += 5
				if err := svc.StepTo(now); err != nil {
					return
				}
			}
		}
	}()
	benchServe(b, srv.Handler(), []string{"/v1/frontpage?limit=15"})
	b.StopTimer()
	close(stop)
	<-writerDone
}

// benchVotersPerStory bounds how many benchmark votes land on one
// story before the feeder moves to a fresh one.
const benchVotersPerStory = 5000

// benchWritePlatform builds a platform sized for `votes` unique
// (story, voter) pairs: user 0 submits every story, users 1..5000 are
// the voters. NeverPromote keeps the write path uniform.
func benchWritePlatform(b *testing.B, votes int) (*digg.Platform, []digg.StoryID) {
	b.Helper()
	p := benchWriteEmpty(b)
	return p, benchWriteStories(b, p, votes)
}

// benchWriteEmpty is benchWritePlatform before any story.
func benchWriteEmpty(b *testing.B) *digg.Platform {
	b.Helper()
	g, err := graph.FromEdgeList(benchVotersPerStory+1, [][2]graph.NodeID{{1, 0}})
	if err != nil {
		b.Fatal(err)
	}
	return digg.NewPlatform(g, digg.NeverPromote{})
}

// benchWriteStories submits benchWritePlatform's stories through s
// and returns their IDs. A durable store must be seeded this way,
// after its creation: shard.Create installs its source's stories
// compacted, and a vote on a compacted story is rejected.
func benchWriteStories(b *testing.B, s digg.Store, votes int) []digg.StoryID {
	b.Helper()
	ids := make([]digg.StoryID, votes/benchVotersPerStory+1)
	for i := range ids {
		st, err := s.Submit(0, fmt.Sprintf("bench-%d", i), 0.5, digg.Minutes(i))
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = st.ID
	}
	return ids
}

// BenchmarkSingleDigg measures the write path one vote at a time:
// each POST takes the write lock, applies one vote, and republishes
// the read snapshot. Compare votes/sec against BenchmarkBatchDigg.
func BenchmarkSingleDigg(b *testing.B) {
	p, stories := benchWritePlatform(b, b.N)
	srv := NewServer(p, 400, nil)
	h := srv.Handler()
	w := &benchWriter{h: make(http.Header, 4)}
	body := make([]byte, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		story := stories[i/benchVotersPerStory]
		voter := 1 + i%benchVotersPerStory
		body = body[:0]
		body = append(body, `{"voter":`...)
		body = strconv.AppendInt(body, int64(voter), 10)
		body = append(body, `,"at":500}`...)
		req := httptest.NewRequest(http.MethodPost,
			fmt.Sprintf("/v1/stories/%d/digg", story), strings.NewReader(string(body)))
		w.reset()
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			b.Fatalf("digg %d: status %d", i, w.status)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "votes/sec")
}

// BenchmarkBatchDigg measures the same votes through POST
// /v1/diggs:batch in batches of 100: one lock acquisition and one
// snapshot republish per hundred votes. The acceptance bar for the
// batch write endpoint is >= 2x BenchmarkSingleDigg's votes/sec.
func BenchmarkBatchDigg(b *testing.B) {
	const batch = 100
	p, stories := benchWritePlatform(b, b.N*batch)
	srv := NewServer(p, 400, nil)
	h := srv.Handler()
	w := &benchWriter{h: make(http.Header, 4)}
	var body []byte
	vote := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body = append(body[:0], `{"diggs":[`...)
		for k := 0; k < batch; k++ {
			if k > 0 {
				body = append(body, ',')
			}
			body = append(body, `{"story":`...)
			body = strconv.AppendInt(body, int64(stories[vote/benchVotersPerStory]), 10)
			body = append(body, `,"voter":`...)
			body = strconv.AppendInt(body, int64(1+vote%benchVotersPerStory), 10)
			body = append(body, `,"at":500}`...)
			vote++
		}
		body = append(body, `]}`...)
		req := httptest.NewRequest(http.MethodPost, "/v1/diggs:batch", strings.NewReader(string(body)))
		w.reset()
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			b.Fatalf("batch %d: status %d", i, w.status)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "votes/sec")
}

// BenchmarkDurableBatchDigg is BenchmarkBatchDigg with a durable store
// (a one-shard shard.Store, as `diggd -data-dir` serves: write-ahead
// log, -fsync interval) underneath the same batch endpoint: each
// request's 100 votes cost one staged WAL append, with fsync amortized
// by the background flusher. The acceptance bar is >= 50% of
// BenchmarkBatchDigg's votes/sec — the price of surviving a restart.
// Reads are unaffected (queries never touch the WAL), which
// BenchmarkServedReads* keep pinning.
func BenchmarkDurableBatchDigg(b *testing.B) {
	const batch = 100
	store, err := shard.Create(b.TempDir(), benchWriteEmpty(b), 1, []byte(`{"bench":"durable"}`), durable.Options{
		Sync:            wal.SyncInterval,
		CheckpointEvery: -1, // measure the log path, not checkpoint stalls
	})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	stories := benchWriteStories(b, store, b.N*batch)
	srv := NewServer(store, 400, nil)
	h := srv.Handler()
	w := &benchWriter{h: make(http.Header, 4)}
	var body []byte
	vote := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body = append(body[:0], `{"diggs":[`...)
		for k := 0; k < batch; k++ {
			if k > 0 {
				body = append(body, ',')
			}
			body = append(body, `{"story":`...)
			body = strconv.AppendInt(body, int64(stories[vote/benchVotersPerStory]), 10)
			body = append(body, `,"voter":`...)
			body = strconv.AppendInt(body, int64(1+vote%benchVotersPerStory), 10)
			body = append(body, `,"at":500}`...)
			vote++
		}
		body = append(body, `]}`...)
		req := httptest.NewRequest(http.MethodPost, "/v1/diggs:batch", strings.NewReader(string(body)))
		w.reset()
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			b.Fatalf("batch %d: status %d", i, w.status)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "votes/sec")
}
