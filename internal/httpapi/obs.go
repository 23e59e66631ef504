package httpapi

// obs.go wires the serving layer into the internal/obs core: per-
// route-class latency histograms wrapped around every handler at mount
// time, snapshot-rebuild instruments, the Tracer middleware that mints
// X-Trace-Id headers and retains slow traces, and the GET /debug/obs
// dump of those traces.
//
// The per-route histograms live inside Server.Handler's route table —
// not in a middleware — so the instrumented path is exactly the one
// the 0-alloc read benchmarks drive: a timed handler costs two
// monotonic clock reads and two uncontended atomic adds per request,
// nothing more. Trace-ID minting allocates (a 16-byte header string),
// so it lives in the separate Tracer middleware that cmd/diggd stacks
// outside the router; servers embedded in benchmarks or tests that
// skip the middleware keep the allocation-free path.

import (
	"log/slog"
	"net/http"
	"sync"
	"time"

	"diggsim/internal/apiv1"
	"diggsim/internal/obs"
)

// Snapshot-rebuild instruments (see snapshot.go's republish/build).
var (
	histSnapshotRebuild = obs.Default.Histogram("diggsim_snapshot_rebuild_seconds", "",
		"Read-view rebuild latency per republish, including re-encoding changed stories.")
	ctrStoriesEncoded = obs.Default.Counter("diggsim_snapshot_stories_encoded_total",
		"Story summaries re-encoded across snapshot rebuilds (cache misses; unchanged stories are reused).")
)

// Freshness instruments: the write→visibility spans this serving layer
// closes. Registered at package load so the families export from every
// node (zero series are still emitted), which lets dashboards and the
// burn evaluator reference them unconditionally.
var (
	// histFreshHTTP measures HTTP write accepted → republished snapshot
	// visible: the window in which a client that wrote could still read
	// stale data. Observed once per write request, after republish —
	// off the hot read path entirely.
	histFreshHTTP = obs.Default.Histogram(obs.FreshnessFrontpageFamily, `source="http"`,
		"Write accepted to republished front-page snapshot visible, by write source.")
	// histFreshSSE measures bus publish → SSE frame flushed: how stale
	// an event already was when it left for a subscriber.
	histFreshSSE = obs.Default.Histogram(obs.FreshnessSSEFamily, "",
		"Event published on the bus to its SSE frame flushed to the subscriber connection.")
)

// requestFamily is the request-latency histogram family: one series
// per route class.
const requestFamily = "diggsim_http_request_seconds"

// routeHist returns the request-latency histogram of one route class.
// Classes name endpoints, not paths (the fans and friends lists share
// "links"): the class cardinality is what an operator dashboards by.
func routeHist(class string) *obs.Histogram {
	return obs.Default.Histogram(requestFamily, routeLabels(class), "HTTP request latency by route class.")
}

// routeLabels is the label text of one route class's series.
func routeLabels(class string) string { return `route="` + class + `"` }

// timed wraps a handler with its route class's latency histogram. The
// histogram is resolved once at mount time; per request the wrapper
// adds two monotonic clock reads (obs.Now — cheaper than time.Now,
// which also reads the wall clock) and one Observe (two atomic adds),
// keeping instrumented handlers on the allocation-free path.
func timed(class string, fn http.HandlerFunc) http.HandlerFunc {
	h := routeHist(class)
	return func(w http.ResponseWriter, r *http.Request) {
		start := obs.Now()
		fn(w, r)
		h.Observe(time.Duration(obs.Now() - start))
	}
}

// Tracer is the tracing middleware: it mints a trace ID per request,
// exposes it as the X-Trace-Id response header, attaches a pooled
// obs.Trace to the request context so handlers can record spans
// (obs.SpanFrom), and — for requests at or above SlowThreshold —
// retains the finished trace in the slow-trace ring and logs one
// structured line. A response that flushed mid-way is a stream (the
// SSE feed, WAL shipping) whose duration is its connection lifetime,
// so it is never captured as slow. Place it outside the router and
// inside any rate-limiting middleware whose rejections should not be
// traced.
type Tracer struct {
	// SlowThreshold is the duration at or above which a request's trace
	// is retained and logged. Zero disables slow-trace capture (the
	// header and context trace are still provided).
	SlowThreshold time.Duration
	// Ring receives slow traces; nil means obs.DefaultRing.
	Ring *obs.TraceRing
	// Log, when non-nil, receives one Warn line per slow request.
	Log *slog.Logger

	pool sync.Pool
}

// NewTracer returns a tracer with the given slow threshold, recording
// into obs.DefaultRing and logging slow requests to log (nil disables
// logging).
func NewTracer(slow time.Duration, log *slog.Logger) *Tracer {
	return &Tracer{SlowThreshold: slow, Ring: obs.DefaultRing, Log: log}
}

// Middleware wraps next with tracing. A client-supplied X-Trace-Id is
// adopted when it is exactly 16 lowercase hex digits (the format this
// server mints), so one trace ID follows a request across retries and
// process boundaries; anything else is replaced, never echoed —
// reflecting arbitrary client bytes into the response header would be
// an injection surface.
func (t *Tracer) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		var idStr string
		id, ok := obs.ParseTraceID(r.Header.Get("X-Trace-Id"))
		if ok {
			idStr = r.Header.Get("X-Trace-Id")
		} else {
			id = obs.NewTraceID()
			idStr = obs.TraceIDString(id)
		}
		tr, _ := t.pool.Get().(*obs.Trace)
		if tr == nil {
			tr = obs.NewTrace(id, start)
		} else {
			tr.Reset(id, start)
		}
		w.Header().Set("X-Trace-Id", idStr)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r.WithContext(obs.WithTrace(r.Context(), tr)))
		dur := time.Since(start)
		if t.SlowThreshold > 0 && dur >= t.SlowThreshold && !sw.flushed {
			ring := t.Ring
			if ring == nil {
				ring = obs.DefaultRing
			}
			spans := tr.Spans()
			ring.Add(obs.TraceEntry{
				ID: idStr, Method: r.Method, Path: r.URL.Path, Status: sw.status,
				Start: start, Duration: dur, Spans: spans,
			})
			if t.Log != nil {
				t.Log.Warn("slow request",
					"trace_id", idStr,
					"method", r.Method,
					"path", r.URL.Path,
					"status", sw.status,
					"duration", dur,
					"spans", len(spans),
				)
			}
		}
		t.pool.Put(tr)
	})
}

// handleObsDump serves GET /debug/obs: the retained slow traces, as
// JSON (apiv1.ObsDump). Latency distributions are on /metrics and the
// timeline.
func (s *Server) handleObsDump(w http.ResponseWriter, r *http.Request) {
	dump := apiv1.ObsDump{SlowTotal: obs.DefaultRing.Total()}
	for _, e := range obs.DefaultRing.Snapshot() {
		trace := apiv1.ObsTrace{
			ID:              e.ID,
			Method:          e.Method,
			Path:            e.Path,
			Status:          e.Status,
			StartUnixMillis: e.Start.UnixMilli(),
			DurationMillis:  float64(e.Duration) / 1e6,
		}
		for _, sp := range e.Spans {
			trace.Spans = append(trace.Spans, apiv1.ObsSpan{
				Name:           sp.Name,
				OffsetMillis:   float64(sp.Offset) / 1e6,
				DurationMillis: float64(sp.Dur) / 1e6,
			})
		}
		dump.SlowTraces = append(dump.SlowTraces, trace)
	}
	writeJSON(w, http.StatusOK, dump)
}
