package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"diggsim/internal/apiv1"
	"diggsim/internal/digg"
	"diggsim/internal/graph"
	"diggsim/internal/live"
	"diggsim/internal/obs"
	"diggsim/internal/repl"
)

// Server serves a digg.Store over HTTP/JSON: the versioned /v1/*
// surface (see v1.go and internal/apiv1).
//
// Reads and writes travel different paths. The hot read endpoints are
// lock-free: they serve pre-serialized JSON from an immutable ReadView
// snapshot published through an atomic pointer (see snapshot.go), so
// heavy scraping never waits behind the simulation writer. Writes —
// HTTP submissions and diggs (single or batch), or the live stepper
// when a live.Service is attached — take the write lock, mutate the
// store, and republish the snapshot before responding, so a client
// always reads its own writes.
//
// The RWMutex remains for the one read the snapshot cannot answer (a
// story newer than the last publication) and for the detail cache's
// fills.
type Server struct {
	// mu guards the store. With AttachLive it is replaced by the
	// service's lock so the simulation writer, snapshot rebuilds and
	// locked readers interleave on one mutex.
	mu    *sync.RWMutex
	store digg.Store
	// graph is the store's immutable social graph, cached so the user
	// endpoints never need the store lock or an interface call.
	graph *graph.Graph
	now   digg.Minutes
	// nowFn, when set, overrides the static now field (live sim clock,
	// or a wall-advancing clock in static mode). It must be safe to
	// call without holding mu.
	nowFn func() digg.Minutes
	// rankOf maps users to reputation ranks. It must be safe for
	// concurrent use without the store lock (the platform default and
	// dataset snapshots both are).
	rankOf func(digg.UserID) int
	// storeRanks records that rankOf is the store default, so user
	// handlers can serve ranks from the snapshot's immutable map
	// instead of calling through.
	storeRanks bool
	live       *live.Service
	// diggOps, diggOuts, submitOps and submitOuts are the batch
	// handlers' reused buffers, guarded by mu (see growBuf).
	diggOps    []digg.DiggOp
	diggOuts   []digg.DiggOutcome
	submitOps  []digg.SubmitOp
	submitOuts []digg.SubmitOutcome
	metrics    *Metrics
	snap       *snapshotStore
	// reg holds this server's state families as collectors (see
	// registerCollectors). It is per server, not obs.Default, so a
	// scrape reports this server's store and a shut-down server is not
	// kept reachable from the process-wide registry.
	reg *obs.Registry

	// repl/replSrc/replMaxLag are the replication wiring: the attached
	// follower (write fencing, lag reporting, readiness), the node's own
	// streaming surface mounted under /repl/v1/, and the /readyz
	// staleness bound. See repl.go.
	repl       *repl.Follower
	replSrc    *repl.Source
	replMaxLag time.Duration

	// timeline/slos are the metrics-timeline wiring (/debug/timeline
	// and the /readyz burn-rate gate). See timeline.go.
	timeline *obs.Timeline
	slos     []obs.SLO
	// writeTrace, when set, forwards the request trace ID to the
	// durable layer before each write, so the WAL commit stamp — and
	// through it the replication heartbeat — carries the trace of the
	// write that produced it. Advisory: concurrent writers may
	// interleave, and the stamp names one of them.
	writeTrace func(uint64)
}

// NewServer wraps a digg.Store: an in-memory *digg.Platform or a
// shard.Store, durable or not. now is the clock used for upcoming-queue
// visibility and write operations; rankOf maps users to reputation
// ranks for the user endpoints (nil means store-derived ranks). A
// non-nil rankOf is called without the store lock and must be safe for
// concurrent use while the store mutates — read from an immutable
// snapshot (like dataset rank maps) or synchronize internally; do not
// pass a closure over live platform state.
func NewServer(store digg.Store, now digg.Minutes, rankOf func(digg.UserID) int) *Server {
	s := &Server{
		mu:     &sync.RWMutex{},
		store:  store,
		graph:  store.SocialGraph(),
		now:    now,
		rankOf: rankOf,
		snap:   newSnapshotStore(),
		reg:    obs.NewRegistry(),
	}
	if rankOf == nil {
		s.rankOf = store.UserRank
		s.storeRanks = true
	}
	return s
}

// SetNow advances the server clock (static mode; a SetNowFunc clock
// takes precedence). The snapshot's upcoming queue filters by the
// clock at serve time, so no republication is needed.
func (s *Server) SetNow(now digg.Minutes) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.now = now
}

// SetNowFunc installs a clock function consulted on every request that
// needs the current sim time (upcoming-queue visibility, default vote
// and submission timestamps), fixing the frozen-clock staleness of a
// static server. fn must be safe for concurrent use and must not
// acquire the server lock. Call before serving traffic.
func (s *Server) SetNowFunc(fn func() digg.Minutes) { s.nowFn = fn }

// AttachLive connects a live simulation service: the server adopts the
// service's platform lock (so snapshot rebuilds and locked readers
// interleave safely with the simulation writer), serves the service's
// clock, republishes the read snapshot after every simulation step,
// and exposes the SSE stream feed plus live metrics on the stats
// endpoints. Call before Handler and before the service runs.
func (s *Server) AttachLive(svc *live.Service) {
	s.mu = svc.Locker()
	s.nowFn = svc.Now
	s.live = svc
	svc.SetAfterStep(s.republish)
}

// AttachMetrics includes the middleware's request counters in stats
// responses and on /metrics. Call before Handler.
func (s *Server) AttachMetrics(m *Metrics) { s.metrics = m }

// SetWriteTraceFunc registers the durable layer's write-trace hook
// (durable.Store.SetWriteTrace fanned out over the shards): write
// handlers call it with the request's trace ID before mutating the
// store, under the write lock. Call before Handler.
func (s *Server) SetWriteTraceFunc(fn func(uint64)) { s.writeTrace = fn }

// stampWriteTrace forwards r's trace ID to the durable layer. Callers
// hold the write lock, so the stamp pairs with this request's commit
// (single-writer stores; sharded stores interleave, which the
// advisory contract allows).
func (s *Server) stampWriteTrace(trace uint64) {
	if s.writeTrace != nil && trace != 0 {
		s.writeTrace(trace)
	}
}

// requestTraceID returns the trace ID the Tracer middleware attached
// to the request, or zero when untraced (benchmarks, bare tests).
func requestTraceID(r *http.Request) uint64 {
	if t := obs.TraceFrom(r.Context()); t != nil {
		return t.ID()
	}
	return 0
}

// clock returns the current sim time: the nowFn clock when installed,
// the static now otherwise. Callers must not hold the lock.
func (s *Server) clock() digg.Minutes {
	if s.nowFn != nil {
		return s.nowFn()
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.now
}

// Handler publishes the initial read snapshot, registers the server's
// metric collectors and returns the HTTP routing table: the versioned
// /v1/* surface plus the health, metrics and debug endpoints. Every
// non-streaming route is wrapped in its route class's latency
// histogram (see obs.go). Because the snapshot is published before any
// request can arrive, read handlers never see a nil view.
func (s *Server) Handler() http.Handler {
	s.republish()
	s.registerCollectors()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", timed("healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	}))
	mux.HandleFunc("GET /readyz", timed("healthz", s.handleReadyz))
	mux.HandleFunc("GET /metrics", timed("metrics", s.handleMetricsProm))
	mux.HandleFunc("GET /debug/obs", s.handleObsDump)
	if s.timeline != nil {
		mux.HandleFunc("GET /debug/timeline", s.handleTimeline)
	}
	if s.replSrc != nil {
		// The node's own replication surface: streaming for followers,
		// status/promote for elections.
		mux.Handle("/repl/v1/", http.StripPrefix("/repl/v1", s.replSrc.Handler()))
	}
	s.mountAPI(mux)
	if s.repl != nil {
		return replLagMiddleware(s.repl, mux)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeRaw sends a pre-encoded JSON body with zero per-request header
// allocations (the shared value slice is assigned, not copied).
func writeRaw(w http.ResponseWriter, body []byte) {
	w.Header()["Content-Type"] = headerJSON
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// storyDetailBytes serves a story's detail JSON from the per-(story,
// version) cache, encoding and caching on miss. ok reports whether the
// snapshot path could answer; when false (a story newer than the
// published view) the caller should use its locked read.
func (s *Server) storyDetailBytes(id digg.StoryID) (buf []byte, ok bool, err error) {
	view := s.snap.view.Load()
	slab := s.snap.details.Load()
	if int(id) >= len(view.storyVer) || int(id) >= len(slab.slots) {
		return nil, false, nil
	}
	slot := slab.slots[id]
	if e := slot.Load(); e != nil && e.ver == view.storyVer[id] {
		return e.buf, true, nil
	}
	// Miss: encode once under the read lock at the current version and
	// cache for every later request of this (story, version).
	s.mu.RLock()
	st, err := s.store.Story(id)
	if err != nil {
		s.mu.RUnlock()
		return nil, false, err
	}
	ver := s.store.StoryVersion(st.ID)
	buf = appendDetail(make([]byte, 0, 128+28*len(st.Votes)), st)
	s.mu.RUnlock()
	slot.Store(&detailEntry{ver: ver, buf: buf})
	return buf, true, nil
}

// submit performs one submission write and republishes the snapshot,
// observing the accept→front-page-visible freshness span.
func (s *Server) submit(req apiv1.SubmitRequest, trace uint64) (apiv1.StoryDetail, error) {
	start := obs.Now()
	at := digg.Minutes(req.At)
	if at == 0 {
		at = s.clock()
	}
	s.mu.Lock()
	s.stampWriteTrace(trace)
	st, err := s.store.Submit(req.Submitter, req.Title, req.Interest, at)
	var out apiv1.StoryDetail
	if err == nil {
		out = detail(st)
	}
	s.mu.Unlock()
	if err != nil {
		return apiv1.StoryDetail{}, err
	}
	s.republish()
	histFreshHTTP.Observe(time.Duration(obs.Now() - start))
	return out, nil
}

// digg performs one vote write and republishes the snapshot, observing
// the accept→front-page-visible freshness span.
func (s *Server) digg(id digg.StoryID, req apiv1.DiggRequest, trace uint64) (apiv1.DiggResponse, error) {
	start := obs.Now()
	at := digg.Minutes(req.At)
	if at == 0 {
		at = s.clock()
	}
	s.mu.Lock()
	s.stampWriteTrace(trace)
	res, err := s.store.Digg(id, req.Voter, at)
	s.mu.Unlock()
	if err != nil {
		return apiv1.DiggResponse{}, err
	}
	s.republish()
	histFreshHTTP.Observe(time.Duration(obs.Now() - start))
	return apiv1.DiggResponse{InNetwork: res.InNetwork, Promoted: res.Promoted, Votes: res.Votes}, nil
}

// userInfoBytes renders a user profile into a pooled buffer. The
// caller must return it with putBuf(bp, buf) after writing (the pooled
// pointer rides along so no fresh *[]byte header is allocated per
// request). ok is false for unknown users.
func (s *Server) userInfoBytes(u digg.UserID) (bp *[]byte, buf []byte, ok bool) {
	// The social graph is immutable once built, so degree lookups need
	// no lock at all.
	g := s.graph
	if int(u) >= g.NumNodes() {
		return nil, nil, false
	}
	var rank int
	if s.storeRanks {
		rank = s.snap.view.Load().ranks[u]
	} else {
		rank = s.rankOf(u)
	}
	bp = encBufPool.Get().(*[]byte)
	return bp, appendUserInfo((*bp)[:0], u, g.InDegree(u), g.OutDegree(u), rank), true
}

// links returns the fan or friend list of u from the immutable graph
// (no lock), or ok=false for unknown users.
func (s *Server) links(u digg.UserID, fans bool) ([]digg.UserID, bool) {
	g := s.graph
	if int(u) >= g.NumNodes() {
		return nil, false
	}
	if fans {
		return g.Fans(u), true
	}
	return g.Friends(u), true
}
