package httpapi

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"diggsim/internal/apiv1"
	"diggsim/internal/obs"
)

// TestFrontPageHandlerZeroAlloc is the CI-enforceable form of the
// acceptance bar BenchmarkFrontPageHandler reports: the instrumented
// snapshot read path — router, timed() wrapper, handler — must stay
// allocation-free on the first page of every list endpoint, including
// minting its next cursor. A regression here means per-request garbage
// crept into the hot path (the instrumentation budget is two monotonic
// clock reads and two atomic adds, nothing heap-bound).
func TestFrontPageHandlerZeroAlloc(t *testing.T) {
	p := benchPlatform(t)
	srv := NewServer(p, 400, nil)
	h := srv.Handler()
	for _, path := range []string{
		"/v1/frontpage?limit=15",
		"/v1/upcoming?limit=15",
		"/v1/stories?limit=50",
		"/v1/topusers?limit=15",
	} {
		t.Run(strings.TrimPrefix(path, "/v1/"), func(t *testing.T) {
			req := httptest.NewRequest(http.MethodGet, path, nil)
			// Warm caches and lazy snapshot state, and make sure the page
			// really mints a cursor: the costly part this guard covers.
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"next_cursor":"`) {
				t.Fatalf("warm-up: status %d, body %s", rec.Code, rec.Body)
			}
			w := &benchWriter{h: make(http.Header, 4)}
			allocs := testing.AllocsPerRun(200, func() {
				w.reset()
				h.ServeHTTP(w, req)
				if w.status != http.StatusOK {
					t.Fatalf("status %d", w.status)
				}
			})
			if allocs != 0 {
				t.Errorf("%s: %.1f allocs/op, want 0", path, allocs)
			}
		})
	}
}

// TestDeepCursorPageAllocs guards the single serving path of the list
// endpoints: a front-page cursor page deep in the promotion order is
// cut from the published snapshot like a first page, so it allocates
// no more than a /v1/stories cursor page, whose only allocation is
// decoding the cursor itself.
func TestDeepCursorPageAllocs(t *testing.T) {
	p := benchPlatform(t)
	if n := p.PromotedCount(); n <= 150 {
		t.Fatalf("bench platform promoted %d stories, need more than 150", n)
	}
	h := NewServer(p, 400, nil).Handler()
	allocs := func(kind apiv1.CursorKind, path string, pos int64) float64 {
		cursor := apiv1.CursorPayload{Kind: kind, Gen: p.Generation(), Pos: pos}.Encode()
		req := httptest.NewRequest(http.MethodGet, path+"&cursor="+string(cursor), nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"next_cursor":"`) {
			t.Fatalf("%s warm-up: status %d, body %s", path, rec.Code, rec.Body)
		}
		w := &benchWriter{h: make(http.Header, 4)}
		return testing.AllocsPerRun(200, func() {
			w.reset()
			h.ServeHTTP(w, req)
			if w.status != http.StatusOK {
				t.Fatalf("%s: status %d", path, w.status)
			}
		})
	}
	front := allocs(apiv1.CursorFrontPage, "/v1/frontpage?limit=50", 150)
	stories := allocs(apiv1.CursorStories, "/v1/stories?limit=50", 100)
	if front > stories {
		t.Errorf("front-page cursor page: %.1f allocs/op, stories cursor page: %.1f", front, stories)
	}
}

// BenchmarkMixedWorkload drives the scraper read mix and a concurrent
// batch-digg writer through one handler, recording every request's
// latency into private obs histograms, and reports the interpolated
// read and write p50/p99 alongside the usual ns/op. This is the
// distribution-aware benchmark cmd/benchjson records into
// BENCH_obs.json: a mean hides exactly the tail the observability
// layer exists to expose (on one core, a read that lands behind the
// writer's lock hold is an order of magnitude slower than the median).
//
// b.N counts read requests; the writer paces itself at ~1ms per
// 100-vote batch, matching BenchmarkServedReadsWhileLive's contention
// profile.
func BenchmarkMixedWorkload(b *testing.B) {
	p := benchPlatform(b)
	srv := NewServer(p, 400, nil)
	h := srv.Handler()

	var readHist, writeHist obs.Histogram

	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		w := &benchWriter{h: make(http.Header, 4)}
		var body []byte
		vote := 0
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			body = append(body[:0], `{"diggs":[`...)
			for k := 0; k < 100; k++ {
				if k > 0 {
					body = append(body, ',')
				}
				body = append(body, `{"story":`...)
				body = strconv.AppendInt(body, int64(vote%300), 10)
				body = append(body, `,"voter":`...)
				body = strconv.AppendInt(body, int64(vote%2000), 10)
				body = append(body, `,"at":500}`...)
				vote++
			}
			body = append(body, `]}`...)
			req := httptest.NewRequest(http.MethodPost, "/v1/diggs:batch", strings.NewReader(string(body)))
			w.reset()
			start := obs.Now()
			h.ServeHTTP(w, req)
			writeHist.Observe(time.Duration(obs.Now() - start))
			if w.status != http.StatusOK {
				b.Errorf("batch write: status %d", w.status)
				return
			}
		}
	}()

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		reqs := make([]*http.Request, len(readMix))
		for i, path := range readMix {
			reqs[i] = httptest.NewRequest(http.MethodGet, path, nil)
		}
		w := &benchWriter{h: make(http.Header, 4)}
		i := 0
		for pb.Next() {
			w.reset()
			start := obs.Now()
			h.ServeHTTP(w, reqs[i%len(reqs)])
			readHist.Observe(time.Duration(obs.Now() - start))
			if w.status != http.StatusOK {
				b.Fatalf("status %d for %s", w.status, readMix[i%len(reqs)])
			}
			i++
		}
	})
	b.StopTimer()
	close(stop)
	<-writerDone

	reads := readHist.Snapshot()
	writes := writeHist.Snapshot()
	b.ReportMetric(reads.Quantile(0.50), "read-p50-ns")
	b.ReportMetric(reads.Quantile(0.99), "read-p99-ns")
	if writes.Count() > 0 {
		b.ReportMetric(writes.Quantile(0.50), "write-p50-ns")
		b.ReportMetric(writes.Quantile(0.99), "write-p99-ns")
		b.ReportMetric(float64(writes.Count()*100)/b.Elapsed().Seconds(), "votes/sec")
	}
}
