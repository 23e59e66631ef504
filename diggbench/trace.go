package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"

	"diggsim/internal/digg"
	"diggsim/internal/graph"
	"diggsim/internal/obs"
	"diggsim/internal/repl"
	"diggsim/internal/shard"
	"diggsim/internal/wal"
)

// span is one timed call at a layer boundary. Its id is its index in
// the recorder; parent is filled in when the run is analysed.
type span struct {
	trace  uint64
	parent int32
	layer  uint8
	name   uint8
	n      int32 // items the call carried (batch ops, WAL records)
	start  int64 // obs.Now nanoseconds
	end    int64
}

const (
	layerClient uint8 = iota
	layerHTTP
	layerShard
	layerLive
	layerRepl
)

var layerNames = []string{"client", "httpapi", "shard", "live", "repl"}

const (
	nameStory uint8 = iota
	nameFrontpage
	namePage
	nameWriteDigg
	nameWriteSubmit
	nameOther
	nameDiggMany
	nameSubmitMany
	nameCommand // per-op Submit/Digg/InstallStory/CompactStory
	nameBeginBatch
	nameEndBatch
	nameStep
	nameApply
	nameAbsorb
)

var spanNames = []string{"story", "frontpage", "page", "write_digg", "write_submit", "other",
	"DiggMany", "SubmitMany", "command", "BeginBatch", "EndBatch", "StepTo", "ApplyReplicated", "Absorb"}

// recorder keeps spans in memory and counts what is too frequent to
// span: store query time, vote outcomes and replication stream bytes.
type recorder struct {
	mu    sync.Mutex
	spans []span

	queryNs                  atomic.Int64
	accessorCalls            atomic.Int64
	accessorSampled          atomic.Int64
	accessorSampledNs        atomic.Int64
	votesAttempted, applied  atomic.Int64
	promotions               atomic.Int64
	tailOpens, tailBytes     atomic.Int64
	recordsApplied, applyOps atomic.Int64
}

func newRecorder() *recorder { return &recorder{spans: make([]span, 0, 1<<20)} }

func (r *recorder) add(s span) {
	s.parent = -1
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// reset drops everything recorded so far: the measured phase starts.
// tailOpens keeps counting from the follower's start, so one open per
// shard is the baseline and anything above it a reconnect.
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.mu.Unlock()
	for _, c := range []*atomic.Int64{&r.queryNs, &r.accessorCalls, &r.accessorSampled, &r.accessorSampledNs, &r.votesAttempted, &r.applied,
		&r.promotions, &r.tailBytes, &r.recordsApplied, &r.applyOps} {
		c.Store(0)
	}
}

// queryTime estimates the time spent in store queries: timed queries
// plus the sampled accessor time, less the timer's own cost, scaled to
// every accessor call.
func (r *recorder) queryTime() float64 {
	t := float64(r.queryNs.Load())
	if n := r.accessorSampled.Load(); n > 0 {
		per := float64(r.accessorSampledNs.Load())/float64(n) - timerCost()
		t += max(per, 0) * float64(r.accessorCalls.Load())
	}
	return t
}

// timerCost is the median cost of an empty timed section.
func timerCost() float64 {
	d := make([]int64, 1001)
	for i := range d {
		a := obs.Now()
		d[i] = obs.Now() - a
	}
	return float64(quantile(d, 0.5))
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans
}

// writeTo writes every span as one tab-separated line: span id, trace,
// parent, layer, name, start and end (ns), items.
func (r *recorder) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "span\ttrace\tparent\tlayer\tname\tstart_ns\tend_ns\titems")
	for i, s := range r.snapshot() {
		fmt.Fprintf(w, "%d\t%s\t%d\t%s\t%s\t%d\t%d\t%d\n", i, obs.TraceIDString(s.trace), s.parent,
			layerNames[s.layer], spanNames[s.name], s.start, s.end, s.n)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedHandler times ServeHTTP around the composed handler, per route
// class. It passes the ResponseWriter through untouched, so Flusher
// and the handlers' allocation-free paths are unchanged; the trace ID
// is the client's X-Trace-Id, which the Tracer middleware adopts.
type tracedHandler struct {
	next http.Handler
	rec  *recorder
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	class := routeClass(r)
	if class == nameOther {
		h.next.ServeHTTP(w, r)
		return
	}
	start := obs.Now()
	h.next.ServeHTTP(w, r)
	end := obs.Now()
	id, _ := obs.ParseTraceID(r.Header.Get("X-Trace-Id"))
	h.rec.add(span{trace: id, layer: layerHTTP, name: class, start: start, end: end})
}

// routeClass names the benchmark's routes; everything else (streams,
// replication, probes) is not timed.
func routeClass(r *http.Request) uint8 {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/diggs:batch":
		return nameWriteDigg
	case r.Method == http.MethodPost && p == "/v1/stories:batch":
		return nameWriteSubmit
	case r.Method != http.MethodGet:
		return nameOther
	case strings.HasPrefix(p, "/v1/stories/"):
		return nameStory
	case p == "/v1/stories" || (p == "/v1/frontpage" && r.URL.Query().Get("limit") == "100"):
		return namePage
	case p == "/v1/frontpage":
		return nameFrontpage
	}
	return nameOther
}

// tracedStore decorates the *shard.Store handed to httpapi.NewServer
// and live.NewService. It exposes exactly the shard store's optional
// capabilities (digg.Batcher, digg.BulkWriter, digg.Sharded and
// Stats), so the server and the stepper take the same code paths as
// with the bare store. Commands are spans; query time is summed.
type tracedStore struct {
	inner *shard.Store
	rec   *recorder
}

func newTracedStore(s *shard.Store, rec *recorder) *tracedStore {
	return &tracedStore{inner: s, rec: rec}
}

func (t *tracedStore) command(name uint8, n int, start int64) {
	t.rec.add(span{layer: layerShard, name: name, n: int32(n), start: start, end: obs.Now()})
}

func (t *tracedStore) query(start int64) {
	t.rec.queryNs.Add(obs.Now() - start)
}

// accessorSample is the 1-in-N rate at which O(1) accessors are timed.
// The snapshot rebuild calls StoryVersion once per story, so timing
// every call would cost more than the calls themselves; the sampled
// time is scaled up by the call count.
const accessorSample = 64

// accessor starts timing one call in accessorSample and returns its
// start, or 0 when the call is only counted.
func (t *tracedStore) accessor() int64 {
	if t.rec.accessorCalls.Add(1)%accessorSample != 0 {
		return 0
	}
	return obs.Now()
}

func (t *tracedStore) accessorDone(start int64) {
	if start != 0 {
		t.rec.accessorSampledNs.Add(obs.Now() - start)
		t.rec.accessorSampled.Add(1)
	}
}

func (t *tracedStore) vote(res digg.DiggResult, err error) {
	t.rec.votesAttempted.Add(1)
	if err == nil {
		t.rec.applied.Add(1)
		if res.Promoted {
			t.rec.promotions.Add(1)
		}
	}
}

func (t *tracedStore) Generation() uint64 {
	defer t.accessorDone(t.accessor())
	return t.inner.Generation()
}

func (t *tracedStore) NumStories() int {
	defer t.accessorDone(t.accessor())
	return t.inner.NumStories()
}

func (t *tracedStore) StoryVersion(id digg.StoryID) uint32 {
	defer t.accessorDone(t.accessor())
	return t.inner.StoryVersion(id)
}

func (t *tracedStore) Story(id digg.StoryID) (*digg.Story, error) {
	s := obs.Now()
	defer t.query(s)
	return t.inner.Story(id)
}

func (t *tracedStore) Stories() []*digg.Story {
	s := obs.Now()
	defer t.query(s)
	return t.inner.Stories()
}

func (t *tracedStore) FrontPage(limit int) []*digg.Story {
	s := obs.Now()
	defer t.query(s)
	return t.inner.FrontPage(limit)
}

func (t *tracedStore) PromotedCount() int {
	defer t.accessorDone(t.accessor())
	return t.inner.PromotedCount()
}

func (t *tracedStore) PromotedIDs() []digg.StoryID {
	s := obs.Now()
	defer t.query(s)
	return t.inner.PromotedIDs()
}

func (t *tracedStore) Upcoming(now digg.Minutes, limit int) []*digg.Story {
	s := obs.Now()
	defer t.query(s)
	return t.inner.Upcoming(now, limit)
}

func (t *tracedStore) TopUsers(k int) []digg.UserID {
	s := obs.Now()
	defer t.query(s)
	return t.inner.TopUsers(k)
}

func (t *tracedStore) Ranks() map[digg.UserID]int {
	s := obs.Now()
	defer t.query(s)
	return t.inner.Ranks()
}

func (t *tracedStore) UserRank(u digg.UserID) int {
	defer t.accessorDone(t.accessor())
	return t.inner.UserRank(u)
}

func (t *tracedStore) SocialGraph() *graph.Graph { return t.inner.SocialGraph() }

func (t *tracedStore) Submit(u digg.UserID, title string, interest float64, at digg.Minutes) (*digg.Story, error) {
	defer t.command(nameCommand, 1, obs.Now())
	return t.inner.Submit(u, title, interest, at)
}

func (t *tracedStore) InstallStory(st *digg.Story) error {
	defer t.command(nameCommand, 1, obs.Now())
	return t.inner.InstallStory(st)
}

func (t *tracedStore) Digg(id digg.StoryID, u digg.UserID, at digg.Minutes) (digg.DiggResult, error) {
	defer t.command(nameCommand, 1, obs.Now())
	res, err := t.inner.Digg(id, u, at)
	t.vote(res, err)
	return res, err
}

func (t *tracedStore) CompactStory(id digg.StoryID) error {
	defer t.command(nameCommand, 1, obs.Now())
	return t.inner.CompactStory(id)
}

func (t *tracedStore) BeginBatch() {
	defer t.command(nameBeginBatch, 0, obs.Now())
	t.inner.BeginBatch()
}

func (t *tracedStore) EndBatch() error {
	defer t.command(nameEndBatch, 0, obs.Now())
	return t.inner.EndBatch()
}

func (t *tracedStore) DiggMany(ops []digg.DiggOp, out []digg.DiggOutcome) error {
	defer t.command(nameDiggMany, len(ops), obs.Now())
	err := t.inner.DiggMany(ops, out)
	for _, o := range out {
		t.vote(o.Result, o.Err)
	}
	return err
}

func (t *tracedStore) SubmitMany(ops []digg.SubmitOp, out []digg.SubmitOutcome) error {
	defer t.command(nameSubmitMany, len(ops), obs.Now())
	return t.inner.SubmitMany(ops, out)
}

func (t *tracedStore) ShardCount() int { return t.inner.ShardCount() }

func (t *tracedStore) ShardGenerations(dst []uint64) []uint64 {
	defer t.accessorDone(t.accessor())
	return t.inner.ShardGenerations(dst)
}

func (t *tracedStore) Stats() []shard.Stat { return t.inner.Stats() }

// tracedTarget decorates the follower's repl.Target: every apply and
// absorb is a span.
type tracedTarget struct {
	inner repl.Target
	rec   *recorder
}

func (t *tracedTarget) ShardCount() int             { return t.inner.ShardCount() }
func (t *tracedTarget) AppliedLSN(shard int) uint64 { return t.inner.AppliedLSN(shard) }
func (t *tracedTarget) Promote() error              { return t.inner.Promote() }

func (t *tracedTarget) ApplyReplicated(shard int, lsn uint64, entries []wal.Entry) error {
	start := obs.Now()
	err := t.inner.ApplyReplicated(shard, lsn, entries)
	t.rec.add(span{layer: layerRepl, name: nameApply, n: int32(len(entries)), start: start, end: obs.Now()})
	t.rec.recordsApplied.Add(int64(len(entries)))
	t.rec.applyOps.Add(1)
	return err
}

func (t *tracedTarget) Absorb() {
	start := obs.Now()
	t.inner.Absorb()
	t.rec.add(span{layer: layerRepl, name: nameAbsorb, start: start, end: obs.Now()})
}

// tracedTransport decorates the follower's repl.Transport: it counts
// Tail calls and the bytes read from their bodies.
type tracedTransport struct {
	inner repl.Transport
	rec   *recorder
}

func (t *tracedTransport) Status(ctx context.Context) (repl.Status, error) {
	return t.inner.Status(ctx)
}
func (t *tracedTransport) Graph(ctx context.Context, shard int) ([]byte, error) {
	return t.inner.Graph(ctx, shard)
}
func (t *tracedTransport) Checkpoint(ctx context.Context, shard int) ([]byte, uint64, error) {
	return t.inner.Checkpoint(ctx, shard)
}
func (t *tracedTransport) Promote(ctx context.Context) error { return t.inner.Promote(ctx) }

func (t *tracedTransport) Tail(ctx context.Context, shard int, from uint64) (io.ReadCloser, error) {
	t.rec.tailOpens.Add(1)
	rc, err := t.inner.Tail(ctx, shard, from)
	if err != nil {
		return nil, err
	}
	return &countingReader{ReadCloser: rc, n: &t.rec.tailBytes}, nil
}

type countingReader struct {
	io.ReadCloser
	n *atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.ReadCloser.Read(p)
	c.n.Add(int64(n))
	return n, err
}
