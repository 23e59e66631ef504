package main

// The four workloads. Each prints every end-to-end metric; roles maps
// each metric to the workload's own name for it.
//
//	browse     read side of a news site: the lock-free snapshot path,
//	           the story-detail cache and the SSE feed.
//	vote       the paper's vote storm: digg apply, the shard split, WAL
//	           append/fsync and republish, with reads alongside.
//	replicate  the only workload that ships the WAL and applies it on a
//	           follower.
//	paper      the science users' job: every serving layer bypassed.

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"maps"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"diggsim/internal/dataset"
	"diggsim/internal/digg"
	"diggsim/internal/experiments"
	"diggsim/internal/obs"
)

var roles = map[string]map[string]string{
	"browse": {
		"setup_s": "setup_s", "peak_rss_mb": "peak_rss_mb", "recover_s": "recover_s",
		"ops_per_s": "read_rps", "op_p50_ms": "read_p50_ms", "op_tail_ms": "read_p99_ms",
		"aux_p50_ms": "feed_step_p50_ms",
	},
	"vote": {
		"setup_s": "setup_s", "peak_rss_mb": "peak_rss_mb", "recover_s": "recover_s",
		"ops_per_s": "write_vps", "op_p50_ms": "write_p50_ms", "op_tail_ms": "write_p90_ms",
		"aux_p50_ms": "read_p50_ms",
	},
	"replicate": {
		"setup_s": "setup_s", "peak_rss_mb": "peak_rss_mb", "recover_s": "recover_s",
		"ops_per_s": "follower_read_rps", "op_p50_ms": "follower_lag_p50_ms", "op_tail_ms": "follower_lag_p90_ms",
		"aux_p50_ms": "follower_read_p50_ms",
	},
	"paper": {
		"setup_s": "generate_s", "peak_rss_mb": "peak_rss_mb", "recover_s": "corpus_load_s",
		"ops_per_s": "experiments_per_s", "op_p50_ms": "figures_p50_ms", "op_tail_ms": "reproduce_ms",
		"aux_p50_ms": "extensions_p50_ms",
	},
}

// Fixed work of the writing workloads, per measured second.
const (
	// voteWritesPerSecond sizes vote's closed-loop write phase: about a
	// third of --seconds on a 2-vCPU host. Every submitted story keeps
	// two per-user membership sets (160 KB at 20k users) until
	// compacted, so write volume sets the peak RSS (~600 MB here).
	voteWritesPerSecond = 200
	// replicateRate paces replicate's writer (batches/s), well below
	// vote's closed-loop capacity, so the follower never falls steadily
	// behind; a submit batch every 10th write gives ~10 lag samples/s.
	// At exactly 100/s submits would land every 100 ms, a multiple of
	// the WAL's 50 ms fsync interval, and so meet it at one phase per
	// run; 97/s lets the phase drift through the whole interval.
	replicateRate = 97
	// paperSecondsPerRep sizes paper's repetitions of the full
	// experiment suite.
	paperSecondsPerRep = 4
	// setupRepeats is how many times a run sets up; setup_s is the
	// median of the quieter half (see hostSteal). The first set-up is
	// the one measured; the others run after the measurement and are
	// torn down.
	setupRepeats = 5
)

// measured brackets the measured phase: obs instruments, runtime
// counters and (traced) the recorder start afresh.
type measured struct {
	b     *bench
	obs   obsMark
	rt    runtimeSample
	start int64
}

func beginMeasure(b *bench) *measured {
	if b.rec != nil {
		b.rec.reset()
	}
	return &measured{b: b, obs: markObs(), rt: readRuntime(), start: obs.Now()}
}

// end records the layer metrics every serving workload shares. ops is
// the number of client ops the runtime counters are divided by.
func (m *measured) end(o *outcome, ops int64) {
	after := markObs()
	if s, ok := m.b.host.share(m.start, obs.Now()); ok {
		o.note("host steal %.1f%% of CPU time in the measured phase", 100*s)
	}
	setRuntimeLayers(o, m.rt, readRuntime(), ops)
	if ckpt := m.obs.delta(after, famCkptWrite); ckpt.Count() != 0 {
		o.fail(1, "an automatic checkpoint landed inside the measured phase")
	}
	if m.b.rec != nil {
		setObsLayers(o, m.b.rec, m.obs, after)
		analyse(o, m.b.rec)
	}
}

// probe is the readiness check: the first read returns 200.
func probe(c *conn) error {
	status, _, err := c.do("GET", "/v1/frontpage?limit=15", nil, nameOther)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("readiness probe: status %d", status)
	}
	return nil
}

// setStream records a client stream's rate and latency quantiles.
// An empty name leaves that value unreported.
func (m *measured) setStream(o *outcome, rate, p50, tail string, s *stream, tailQ float64) {
	r, p, t := s.summary(tailQ, m.b.host)
	for name, v := range map[string]float64{rate: r, p50: p, tail: t} {
		if name != "" {
			o.e2e[name] = v
		}
	}
}

// gate applies a client latency limit: a stream whose p99 misses it
// reports its throughput as failed.
func gate(o *outcome, s *stream, limit time.Duration, what string) {
	if p99 := quantile(s.lat, 0.99); p99 > int64(limit) {
		o.fail(int64(len(s.lat))-s.failed, "%s p99 %.2f ms misses the %v limit", what, ms(p99), limit)
	}
}

// finishSetups records setup_s as the median of the measured set-up
// and setupRepeats-1 more, and peak_rss_mb before the extra set-ups.
func finishSetups(b *bench, o *outcome, first interval, again func() (interval, error)) error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	o.e2e["peak_rss_mb"] = rss
	setups := []interval{first}
	for i := 1; i < setupRepeats; i++ {
		runtime.GC()
		d, err := again()
		if err != nil {
			return err
		}
		setups = append(setups, d)
	}
	o.e2e["setup_s"] = b.host.quietMedian(setups)
	return nil
}

// seconds returns the time since start (obs.Now) as an interval.
func seconds(start int64) interval {
	end := obs.Now()
	return interval{value: float64(end-start) / 1e9, start: start, end: end}
}

// primarySetup starts a primary and probes it; it returns the node,
// the probing connection and the set-up time.
func setUpPrimary(b *bench, dir string) (*node, primarySetup, *conn, interval, error) {
	t0 := obs.Now()
	n, ps, err := startPrimary(b, dir)
	if err != nil {
		return nil, ps, nil, interval{}, err
	}
	c := newConn(b, n.base, 1)
	if err := probe(c); err != nil {
		n.shutdown()
		return nil, ps, nil, interval{}, err
	}
	return n, ps, c, seconds(t0), nil
}

// againPrimary is an extra primary set-up, torn down at once.
func againPrimary(b *bench, i *int) func() (interval, error) {
	return func() (interval, error) {
		*i++
		n, _, c, d, err := setUpPrimary(b, filepath.Join(b.dir, fmt.Sprintf("setup-%d", *i)))
		if err != nil {
			return interval{}, err
		}
		c.close()
		return d, n.shutdown()
	}
}

func setPrimaryLayers(o *outcome, ps primarySetup) {
	o.layers["dataset.generate_s"] = ps.generate.Seconds()
	o.layers["durable.create_s"] = ps.create.Seconds()
}

func runBrowse(b *bench) (*outcome, error) {
	o := newOutcome(roles["browse"])
	dir := filepath.Join(b.dir, "primary")
	n, ps, c1, setup, err := setUpPrimary(b, dir)
	if err != nil {
		return nil, err
	}
	setPrimaryLayers(o, ps)
	rd := newReader(b, c1, len(ps.ds.Stories))
	sse, err := subscribe(newConn(b, n.base, 2))
	if err != nil {
		return nil, err
	}
	for n.svc.Bus().Stats().Subscribers == 0 {
		time.Sleep(time.Millisecond)
	}

	m := beginMeasure(b)
	st := startStepper(b, n.svc, b.seconds*int(time.Second/stepTick))
	stopRead := make(chan struct{})
	go func() { st.wait(); close(stopRead) }()
	rd.run(stopRead)
	published := n.svc.Bus().Stats().Published
	for deadline := time.Now().Add(5 * time.Second); sse.received.Load() < published && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	sse.close()
	c1.close()
	m.end(o, int64(len(rd.lat)))
	if st.err != nil {
		return nil, st.err
	}

	o.attempted += int64(len(rd.lat))
	if rd.failed > 0 {
		o.fail(rd.failed, "browse reads failed: %v", rd.problems)
	}
	gate(o, &rd.stream, readLimit, "read")
	m.setStream(o, "ops_per_s", "op_p50_ms", "op_tail_ms", &rd.stream, 0.99)
	checkFeed(m, o, st, sse, published)
	setStepLayers(o, st)
	setWALLayers(o, dir)
	if len(rd.lat) > 0 {
		o.layers["httpapi.read_bytes_per_op"] = float64(rd.bytes) / float64(len(rd.lat))
	}
	o.note("reads=%d feed_events=%d steps=%d", len(rd.lat), len(sse.recv), len(st.steps))

	want := stateOf(n.store)
	if err := n.shutdown(); err != nil {
		return nil, err
	}
	if err := reopen(b, o, dir, want); err != nil {
		return nil, err
	}
	i := 0
	return o, finishSetups(b, o, setup, againPrimary(b, &i))
}

// checkFeed checks the SSE stream and records the feed latency, from
// the StepTo call that published an event to the event's arrival.
//
// Per event (the live.feed_* layer metrics), a few promotion-heavy
// steps hold most events, and which steps are heavy depends on the
// seed: across seeds the per-event median moved 13% and the p90 moved
// 55-107% on a quiet host. aux_p50_ms therefore takes the median over
// steps of the latency until a step's last event arrived (6% across
// seeds), and the feed tail is left to the layer metrics.
func checkFeed(m *measured, o *outcome, st *stepper, sse *sseClient, published uint64) {
	o.attempted += int64(published)
	if missing := int64(published) - int64(len(sse.recv)); missing > 0 {
		o.fail(missing, "stream delivered %d of %d events", len(sse.recv), published)
	}
	if sse.lags > 0 {
		o.fail(int64(sse.lags), "stream sent %d lag frames", sse.lags)
	}
	for _, p := range sse.problems {
		o.fail(1, "%s", p)
	}
	feed := stream{start: st.steps[0].start, end: st.steps[len(st.steps)-1].end}
	stepDone := map[int]int64{} // step index -> arrival of its last event
	for _, ev := range sse.recv {
		k := sort.Search(len(st.steps), func(i int) bool { return st.steps[i].to >= ev.seq })
		if k == len(st.steps) || ev.seq <= st.steps[k].from {
			o.fail(1, "event %d published outside any step", ev.seq)
			continue
		}
		feed.add(ev.at, ev.at-st.steps[k].start, 1)
		stepDone[k] = ev.at
	}
	perStep := stream{start: feed.start, end: feed.end}
	for k := range st.steps {
		if at, ok := stepDone[k]; ok {
			perStep.add(st.steps[k].start, at-st.steps[k].start, 1)
		}
	}
	m.setStream(o, "", "aux_p50_ms", "", &perStep, 0.5)
	_, o.layers["live.feed_p50_ms"], o.layers["live.feed_p90_ms"] = feed.summary(0.9, m.b.host)
	o.note("per event: feed_p50_ms %.4f, feed_p90_ms %.4f over %d events in %d steps",
		o.layers["live.feed_p50_ms"], o.layers["live.feed_p90_ms"], len(sse.recv), len(stepDone))
	if published > 0 {
		o.layers["live.feed_delivery_ratio"] = float64(len(sse.recv)) / float64(published)
	}
}

func runVote(b *bench) (*outcome, error) {
	o := newOutcome(roles["vote"])
	dir := filepath.Join(b.dir, "primary")
	n, ps, c1, setup, err := setUpPrimary(b, dir)
	if err != nil {
		return nil, err
	}
	setPrimaryLayers(o, ps)
	w := newWriter(b, c1, n.store.SocialGraph().NumNodes())
	rd := newReader(b, newConn(b, n.base, 2), len(ps.ds.Stories))

	m := beginMeasure(b)
	st := startStepper(b, n.svc, 0)
	stopRead := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); rd.run(stopRead) }()
	w.runFixed(voteWritesPerSecond * b.seconds)
	close(stopRead)
	wg.Wait()
	st.halt()
	c1.close()
	rd.c.close()
	m.end(o, int64(len(w.lat)+len(rd.lat)))
	if st.err != nil {
		return nil, st.err
	}

	checkWriter(o, w)
	o.attempted += int64(len(rd.lat))
	if rd.failed > 0 {
		o.fail(rd.failed, "reads failed: %v", rd.problems)
	}
	gate(o, &rd.stream, readLimit, "read")
	// About one write in a hundred waits for a live step to release
	// the store, so the p99 sits on that boundary and jumps between
	// runs (28% across seeds); the tail slot takes the p90.
	m.setStream(o, "ops_per_s", "op_p50_ms", "op_tail_ms", &w.stream, 0.9)
	m.setStream(o, "", "aux_p50_ms", "", &rd.stream, 0.99)
	readRate, _, readTail := rd.summary(0.99, b.host)
	o.note("write_p99_ms %.4f ms, read_rps %.1f 1/s, read_p99_ms %.4f ms",
		w.quantile(0.99, b.host), readRate, readTail)
	setStepLayers(o, st)
	setWALLayers(o, dir)
	if len(rd.lat) > 0 {
		o.layers["httpapi.read_bytes_per_op"] = float64(rd.bytes) / float64(len(rd.lat))
	}
	o.note("writes=%d votes=%d applied=%d rejected=%d reads=%d steps=%d",
		len(w.lat), w.items, w.applied, w.rejected, len(rd.lat), len(st.steps))

	want := stateOf(n.store)
	if err := n.shutdown(); err != nil {
		return nil, err
	}
	if err := reopen(b, o, dir, want); err != nil {
		return nil, err
	}
	i := 0
	return o, finishSetups(b, o, setup, againPrimary(b, &i))
}

// checkWriter counts the writer's ops and applies the write gate.
func checkWriter(o *outcome, w *writer) {
	o.attempted += int64(len(w.lat))
	if w.failed > 0 {
		o.fail(w.failed, "writes failed: %v", w.problems)
	}
	if w.applied+w.rejected != w.items {
		o.fail(1, "applied %d + rejected %d != attempted %d", w.applied, w.rejected, w.items)
	}
	gate(o, &w.stream, writeLimit, "write")
}

// setWALLayers records WAL bytes per applied vote from the primary's
// segment sizes (traced runs count applied votes).
func setWALLayers(o *outcome, dir string) {
	applied := o.layers["digg.votes_applied"]
	if applied == 0 {
		return
	}
	size, err := walBytes(dir)
	if err != nil {
		o.fail(1, "listing WAL segments: %v", err)
		return
	}
	o.layers["wal.bytes_per_applied_vote"] = float64(size) / applied
}

// ackedStory is a story the writer saw acknowledged, and when.
type ackedStory struct {
	id  digg.StoryID
	ack int64
}

// ackQueue hands acknowledged submissions from the writer to the
// follower reader.
type ackQueue struct {
	mu      sync.Mutex
	pending []ackedStory
}

func (q *ackQueue) push(id digg.StoryID, ack int64) {
	q.mu.Lock()
	q.pending = append(q.pending, ackedStory{id: id, ack: ack})
	q.mu.Unlock()
}

func (q *ackQueue) take(dst []ackedStory) []ackedStory {
	q.mu.Lock()
	dst = append(dst, q.pending...)
	q.pending = q.pending[:0]
	q.mu.Unlock()
	return dst
}

func runReplicate(b *bench) (*outcome, error) {
	o := newOutcome(roles["replicate"])
	pdir, fdir := filepath.Join(b.dir, "primary"), filepath.Join(b.dir, "follower")
	n, f, c1, c2, setup, err := setUpPair(b, o, pdir, fdir)
	if err != nil {
		return nil, err
	}
	w := newWriter(b, c1, n.store.SocialGraph().NumNodes())
	acks := &ackQueue{}
	w.onSubmit = acks.push

	m := beginMeasure(b)
	st := startStepper(b, n.svc, 0)
	stopRead := make(chan struct{})
	var polls stream
	var lags *stream
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		lags = pollFollower(c2, acks, &polls, stopRead)
	}()
	late := w.runPaced(replicateRate*b.seconds, replicateRate)
	close(stopRead)
	wg.Wait()
	st.halt()
	c1.close()
	c2.close()
	drained := drainFollower(n, f, 10*time.Second)
	m.end(o, int64(len(w.lat)+len(polls.lat)))
	if st.err != nil {
		return nil, st.err
	}

	checkWriter(o, w)
	o.attempted += int64(len(polls.lat)) + 1
	if polls.failed > 0 {
		o.fail(polls.failed, "follower reads failed")
	}
	if drained != nil {
		o.fail(1, "%v", drained)
	}
	gate(o, &polls, readLimit, "follower read")
	lags.start, lags.end = w.start, w.end
	// The paced writer fixes the submission rate, so the rate slot takes
	// the follower reader's throughput.
	m.setStream(o, "", "op_p50_ms", "op_tail_ms", lags, 0.9)
	m.setStream(o, "ops_per_s", "aux_p50_ms", "", &polls, 0.99)
	_, _, pollTail := polls.summary(0.99, b.host)
	o.note("follower_read_p99_ms %.4f ms", pollTail)
	if len(polls.lat) > 0 {
		o.layers["httpapi.read_bytes_per_op"] = float64(polls.bytes) / float64(len(polls.lat))
	}
	o.layers["gen.late_p50_ms"] = ms(quantile(late, 0.5))
	o.layers["gen.late_p99_ms"] = ms(quantile(late, 0.99))
	setStepLayers(o, st)
	setWALLayers(o, pdir)
	o.note("writes=%d votes=%d lag_samples=%d follower_reads=%d steps=%d",
		len(w.lat), w.items, len(lags.lat), len(polls.lat), len(st.steps))
	if len(lags.lat) < 100 {
		o.fail(1, "only %d follower lag samples (need >= 100)", len(lags.lat))
	}

	want := stateOf(n.store)
	if err := f.shutdown(); err != nil {
		return nil, err
	}
	if err := n.shutdown(); err != nil {
		return nil, err
	}
	if err := reopen(b, o, pdir, want); err != nil {
		return nil, err
	}
	i := 0
	return o, finishSetups(b, o, setup, func() (interval, error) {
		i++
		n, f, c1, c2, d, err := setUpPair(b, nil, filepath.Join(b.dir, fmt.Sprintf("p%d", i)), filepath.Join(b.dir, fmt.Sprintf("f%d", i)))
		if err != nil {
			return interval{}, err
		}
		c1.close()
		c2.close()
		return d, errors.Join(f.shutdown(), n.shutdown())
	})
}

// setUpPair sets up a primary and a follower bootstrapped from it, each
// probed on its own client connection. With o non-nil it records the
// set-up's layer timings there.
func setUpPair(b *bench, o *outcome, pdir, fdir string) (n, f *node, c1, c2 *conn, setup interval, err error) {
	t0 := obs.Now()
	var ps primarySetup
	n, ps, c1, _, err = setUpPrimary(b, pdir)
	if err != nil {
		return
	}
	f, boot, err := startFollower(b, n, fdir)
	if err != nil {
		n.shutdown()
		return
	}
	c2 = newConn(b, f.base, 2)
	if err = probe(c2); err != nil {
		f.shutdown()
		n.shutdown()
		return
	}
	setup = seconds(t0)
	if o != nil {
		setPrimaryLayers(o, ps)
		o.layers["repl.bootstrap_s"] = boot.Seconds()
	}
	return
}

// pollFollower is the closed-loop follower reader. It polls the
// acknowledged submissions the follower does not serve yet, in turn
// (the newest one read again when none is pending), and returns, per
// submission, the time from the primary's acknowledgment to the
// follower first serving it. Polling every pending story, not only the
// newest, keeps lags longer than the submit interval in the sample.
func pollFollower(c *conn, acks *ackQueue, polls *stream, stop <-chan struct{}) *stream {
	lags := &stream{}
	var pending []ackedStory
	var last digg.StoryID
	polls.start = obs.Now()
	for k := 0; ; k++ {
		select {
		case <-stop:
			polls.end = obs.Now()
			return lags
		default:
		}
		pending = acks.take(pending)
		id, i := last, -1
		if len(pending) > 0 {
			i = k % len(pending)
			id = pending[i].id
		}
		status, lat, err := c.do("GET", "/v1/stories/"+strconv.Itoa(int(id)), nil, nameStory)
		seen := obs.Now()
		polls.add(seen, lat, 1)
		polls.bytes += int64(c.body.Len())
		if err != nil || (status != http.StatusOK && status != http.StatusNotFound) {
			polls.failed++
			polls.lat[len(polls.lat)-1] = failedLatency
		}
		if i >= 0 && status == http.StatusOK {
			lags.add(seen, seen-pending[i].ack, 1)
			last = id
			pending = append(pending[:i], pending[i+1:]...)
		}
	}
}

// drainFollower waits until every follower shard has applied the
// primary's head, then checks both stores have the same generation.
func drainFollower(p, f *node, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		lock := f.follower.Locker()
		lock.RLock()
		caught := true
		for i := 0; i < p.store.ShardCount(); i++ {
			if f.rnode.Target.AppliedLSN(i) != p.store.DurableShard(i).AppliedLSN() {
				caught = false
			}
		}
		fgen := f.store.Generation()
		lock.RUnlock()
		if caught {
			if pgen := p.store.Generation(); pgen != fgen {
				return fmt.Errorf("follower generation %d != primary %d after drain", fgen, pgen)
			}
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower did not reach the primary's head within %v", timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

func runPaper(b *bench) (*outcome, error) {
	o := newOutcome(roles["paper"])
	cfg := dataset.DefaultConfig()
	cfg.Seed = b.seed
	generate := func() (*dataset.Dataset, interval, error) {
		t0 := obs.Now()
		ds, err := dataset.Generate(cfg)
		return ds, seconds(t0), err
	}
	ds, setup, err := generate()
	if err != nil {
		return nil, err
	}
	o.layers["dataset.generate_s"] = setup.value

	ids := experiments.IDs()
	reps := max(1, b.seconds/paperSecondsPerRep)
	runner := &experiments.Runner{DS: ds, Seed: b.derive(streamExperiments)}
	m := beginMeasure(b)
	perID := map[string][]float64{}
	first := map[string]experiments.Result{}
	drift := map[string]float64{}
	var figures, extensions []float64
	var repSpans []interval // value: the repetition's index
	for rep := 0; rep < reps; rep++ {
		var fig, ext float64
		repStart := obs.Now()
		for _, id := range ids {
			t0 := obs.Now()
			res, err := runner.Run(id)
			d := float64(obs.Now()-t0) / 1e6
			o.attempted++
			if err != nil {
				o.fail(1, "%s: %v", id, err)
				continue
			}
			perID[id] = append(perID[id], d/1e3)
			if isFigure(id) {
				fig += d
			} else {
				ext += d
			}
			if prev, ok := first[id]; ok {
				checkRepeat(o, prev, res, drift)
			} else {
				first[id] = res
				checkPaper(o, res)
			}
		}
		figures = append(figures, fig)
		extensions = append(extensions, ext)
		repSpans = append(repSpans, interval{value: float64(rep), start: repStart, end: obs.Now()})
	}
	setRuntimeLayers(o, m.rt, readRuntime(), o.attempted)
	for _, id := range ids {
		o.layers["experiments."+id+"_s"] = median(perID[id])
	}
	// The repetitions with the least host steal give the metrics.
	var fig, ext, all []float64
	var busy float64
	for _, r := range b.host.quieter(repSpans) {
		i := int(r.value)
		fig, ext = append(fig, figures[i]), append(ext, extensions[i])
		all = append(all, (figures[i]+extensions[i])/1e3)
		busy += float64(r.end-r.start) / 1e9
	}
	// Every repetition does the same fixed work, so the tail slot takes
	// the whole suite's time (reproduce_s, in ms), not a slowest case.
	o.e2e["ops_per_s"] = float64(len(ids)*len(all)) / busy
	o.e2e["op_p50_ms"], o.e2e["op_tail_ms"] = median(fig), 1e3*median(all)
	o.e2e["aux_p50_ms"] = median(ext)
	o.note("reproduce_s %.4f s (median of %d of %d repetitions of %d experiments), report digest %s",
		median(all), len(all), reps, len(ids), reportDigest(first))
	o.layers["experiments.non_bitexact_metrics"] = float64(len(drift))
	for _, name := range slices.Sorted(maps.Keys(drift)) {
		o.note("not bit-reproducible between repetitions: %s (up to %.2g relative)", name, drift[name])
	}

	// recover_s: the saved corpus loaded back.
	dir := filepath.Join(b.dir, "corpus")
	if err := ds.Save(dir); err != nil {
		return nil, err
	}
	// Flush the written corpus to disk first, so the kernel's background
	// writeback does not land inside the timed loads.
	syscall.Sync()
	var loads []interval
	for i := 0; i < reopens; i++ {
		runtime.GC()
		t0 := obs.Now()
		loaded, err := dataset.Load(dir)
		if err != nil {
			return nil, err
		}
		loads = append(loads, seconds(t0))
		o.attempted++
		if got, want := corpusVotes(loaded), corpusVotes(ds); len(loaded.Stories) != len(ds.Stories) || got != want {
			o.fail(1, "loaded corpus has %d stories and %d votes, saved %d and %d", len(loaded.Stories), got, len(ds.Stories), want)
		}
	}
	o.e2e["recover_s"] = b.host.quietMedian(loads)
	return o, finishSetups(b, o, setup, func() (interval, error) {
		_, d, err := generate()
		return d, err
	})
}

func corpusVotes(ds *dataset.Dataset) int {
	n := 0
	for _, st := range ds.Stories {
		n += len(st.Votes)
	}
	return n
}

// isFigure reports whether an experiment reproduces one of the paper's
// own figures or tables (fig*, tab1, text1) rather than an extension or
// ablation.
func isFigure(id string) bool {
	return id[0] == 'f' || id[0] == 't'
}

// checkPaper checks the paper's headline results.
func checkPaper(o *outcome, res experiments.Result) {
	if res.Text == "" {
		o.fail(1, "%s: empty report", res.ID)
	}
	m := res.Metrics
	switch res.ID {
	case "fig4":
		for _, k := range []string{"spearman_v6", "spearman_v10", "spearman_v20"} {
			if !(m[k] < 0) {
				o.fail(1, "fig4 %s = %v, want < 0", k, m[k])
			}
		}
	case "text1":
		if m["min_frontpage_votes"] < 43 || m["max_upcoming_votes"] > 42 {
			o.fail(1, "text1 boundary %v / %v, want >= 43 / <= 42", m["min_frontpage_votes"], m["max_upcoming_votes"])
		}
	case "fig5":
		if m["cv_accuracy"] < 0.6 {
			o.fail(1, "fig5 cv_accuracy %v, want >= 0.6", m["cv_accuracy"])
		}
	}
}

// repeatTolerance is the relative amount by which a metric may differ
// between repetitions of one experiment on one corpus and seed. It
// admits floating-point summation-order error (about 1e-15 on a sum of
// 20k terms) and nothing a different result would give.
const repeatTolerance = 1e-9

// checkRepeat checks a repetition of an experiment against its first
// run: the report text byte for byte, and every metric within
// repeatTolerance. Metrics that differ inside the tolerance are
// recorded in drift with their largest relative difference, so one
// that is not bit-reproducible still shows.
func checkRepeat(o *outcome, first, res experiments.Result, drift map[string]float64) {
	if res.Text != first.Text {
		o.fail(1, "%s: report text changed between repetitions", res.ID)
		return
	}
	if len(res.Metrics) != len(first.Metrics) {
		o.fail(1, "%s: %d metrics, first repetition had %d", res.ID, len(res.Metrics), len(first.Metrics))
		return
	}
	for _, k := range slices.Sorted(maps.Keys(first.Metrics)) {
		want := first.Metrics[k]
		got, ok := res.Metrics[k]
		if ok && (got == want || math.Float64bits(got) == math.Float64bits(want)) {
			continue
		}
		rel := math.Abs(got-want) / math.Max(math.Abs(got), math.Abs(want))
		if !ok || !(rel <= repeatTolerance) {
			o.fail(1, "%s: %s changed between repetitions: %v, then %v", res.ID, k, want, got)
			return
		}
		drift[res.ID+"."+k] = math.Max(drift[res.ID+"."+k], rel)
	}
}

// reportDigest hashes every experiment's report text in id order, one
// value to compare across runs of a seed.
func reportDigest(results map[string]experiments.Result) string {
	h := sha256.New()
	for _, id := range slices.Sorted(maps.Keys(results)) {
		h.Write([]byte(id + "\x00" + results[id].Text + "\x00"))
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
