package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"diggsim/internal/dataset"
	"diggsim/internal/digg"
	"diggsim/internal/durable"
	"diggsim/internal/httpapi"
	"diggsim/internal/live"
	"diggsim/internal/obs"
	"diggsim/internal/repl"
	"diggsim/internal/shard"
	"diggsim/internal/wal"
)

// The composition mirrors `diggd -live -shards 2 -data-dir DIR` with
// diggd's defaults; these are the settings it takes from flags.
const (
	numShards       = 2
	liveSpeedup     = 600 // sim-minutes per wall-minute
	liveSubsPerHour = 60
	slowThreshold   = 250 * time.Millisecond
	// stepTick and stepSimMinutes are diggd's default live tick and the
	// sim-time it covers at speedup 600.
	stepTick       = 200 * time.Millisecond
	stepSimMinutes = 2
	stepPhase      = wal.DefaultSyncEvery / 10
)

// logger stands in for diggd's lifecycle log (slow requests only).
var logger = slog.New(slog.NewTextHandler(os.Stderr, nil))

func durableOptions() durable.Options {
	return durable.Options{Sync: wal.SyncInterval, CheckpointEvery: durable.DefaultCheckpointEvery}
}

// genesisInfo is diggd's genesis blob: seed and generation config.
type genesisInfo struct {
	Seed      uint64         `json:"seed"`
	CreatedAt string         `json:"created_at"`
	Config    dataset.Config `json:"config"`
}

// node is one composed diggd: store, HTTP server and the goroutines
// that serve it.
type node struct {
	store    *shard.Store
	svc      *live.Service // primary only
	srv      *httpapi.Server
	httpSrv  *http.Server
	base     string
	src      *repl.Source
	follower *repl.Follower // follower only
	rnode    *repl.Node     // follower only

	stopTimeline context.CancelFunc
	done         chan struct{} // closed when Serve and the timeline have returned
}

// primarySetup reports how long the parts of a primary's set-up took.
type primarySetup struct {
	generate, create time.Duration
	ds               *dataset.Dataset
}

// startPrimary generates the corpus, creates the sharded durable store
// in dir and serves it live on a loopback port. The live service is
// never Run; the caller steps it.
func startPrimary(b *bench, dir string) (*node, primarySetup, error) {
	var ps primarySetup
	cfg := dataset.DefaultConfig()
	cfg.Seed = b.seed
	t0 := time.Now()
	ds, err := dataset.Generate(cfg)
	if err != nil {
		return nil, ps, err
	}
	ps.generate = time.Since(t0)
	ps.ds = ds
	genesis, err := json.Marshal(genesisInfo{Seed: b.seed, CreatedAt: time.Now().UTC().Format(time.RFC3339), Config: cfg})
	if err != nil {
		return nil, ps, err
	}
	t1 := time.Now()
	sstore, err := shard.Create(dir, ds.Platform, numShards, genesis, durableOptions())
	if err != nil {
		return nil, ps, err
	}
	ps.create = time.Since(t1)

	// The decorated store goes to both the server and the live
	// service, as the bare one does untraced.
	var store digg.Store = sstore
	if b.rec != nil {
		store = newTracedStore(sstore, b.rec)
	}
	n := &node{store: sstore}
	n.srv = httpapi.NewServer(store, cfg.SnapshotAt, nil)
	n.svc, err = live.NewService(store, live.Config{
		Speedup:            liveSpeedup,
		SubmissionsPerHour: liveSubsPerHour,
		Seed:               b.derive(streamStepper),
		StartAt:            cfg.SnapshotAt,
		Agent:              cfg.Agent,
		SubmitterZipfS:     cfg.SubmitterZipfS,
		InterestExponent:   cfg.InterestExponent,
		TopUserListSize:    cfg.TopUserListSize,
	})
	if err != nil {
		sstore.Close()
		return nil, ps, err
	}
	n.srv.AttachLive(n.svc)
	n.srv.SetWriteTraceFunc(func(id uint64) {
		for i := 0; i < sstore.ShardCount(); i++ {
			sstore.DurableShard(i).SetWriteTrace(id)
		}
	})
	var shards []repl.SourceShard
	for i := 0; i < sstore.ShardCount(); i++ {
		d := sstore.DurableShard(i)
		shards = append(shards, repl.SourceShard{Dir: d.Dir(), Head: d.AppliedLSN, LastCommit: d.LastCommit})
	}
	n.src = &repl.Source{Shards: shards}
	if err := n.serve(b); err != nil {
		sstore.Close()
		return nil, ps, err
	}
	return n, ps, nil
}

// startFollower bootstraps a follower of primary into dir over HTTP
// (repl.Bootstrap + repl.Follower), as `diggd -replica-of` does, and
// serves it. It returns the bootstrap time.
func startFollower(b *bench, primary *node, dir string) (*node, time.Duration, error) {
	var tr repl.Transport = &repl.HTTPTransport{Base: primary.base}
	if b.rec != nil {
		tr = &tracedTransport{inner: tr, rec: b.rec}
	}
	t0 := time.Now()
	rn, err := repl.Bootstrap(context.Background(), tr, dir, durableOptions())
	if err != nil {
		return nil, 0, err
	}
	boot := time.Since(t0)
	if rn.Sharded == nil {
		rn.Close()
		return nil, 0, errors.New("follower bootstrapped an unsharded store")
	}
	target := rn.Target
	if b.rec != nil {
		target = &tracedTarget{inner: target, rec: b.rec}
	}
	n := &node{store: rn.Sharded, rnode: rn}
	n.follower = repl.NewFollower(target, tr, repl.Options{StateDir: dir, Primary: primary.base})
	cfg := dataset.DefaultConfig()
	var gi genesisInfo
	if err := json.Unmarshal(rn.Sharded.Genesis(), &gi); err == nil && gi.Config.Users > 0 {
		cfg = gi.Config
	}
	startAt := latestActivity(rn.Sharded, cfg.SnapshotAt)
	n.srv = httpapi.NewServer(rn.Sharded, startAt, nil)
	clock := live.NewClock(time.Now(), startAt, 1)
	n.srv.SetNowFunc(func() digg.Minutes { return clock.Now(time.Now()) })
	n.srv.AttachRepl(n.follower, httpapi.DefaultReadyMaxLag)
	f := n.follower
	n.src = &repl.Source{
		Shards: rn.SourceShards(),
		Role: func() string {
			if f.ReadOnly() {
				return "follower"
			}
			return "primary"
		},
		Promote: f.Promote,
	}
	if err := n.serve(b); err != nil {
		rn.Close()
		return nil, 0, err
	}
	n.follower.Start()
	return n, boot, nil
}

// serve finishes diggd's composition — metrics timeline with the
// default SLOs, replication surface, Metrics middleware and Tracer —
// and starts serving on a loopback port.
func (n *node) serve(b *bench) error {
	ctx, cancel := context.WithCancel(context.Background())
	n.stopTimeline = cancel
	timeline := obs.NewTimeline(obs.Default, 900, time.Second)
	n.srv.AttachTimeline(timeline, httpapi.DefaultSLOs()...)
	n.srv.MountRepl(n.src)
	metrics := httpapi.NewMetrics()
	n.srv.AttachMetrics(metrics)
	handler := http.Handler(n.srv.Handler())
	handler = httpapi.NewTracer(slowThreshold, logger).Middleware(handler)
	handler = metrics.Middleware(handler)
	if b.rec != nil {
		handler = &tracedHandler{next: handler, rec: b.rec}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		return err
	}
	n.base = "http://" + ln.Addr().String()
	n.httpSrv = &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	n.done = make(chan struct{})
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		if err := n.httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "diggbench: serve:", err)
		}
	}()
	go func() {
		timeline.Run(ctx)
		<-serveDone
		close(n.done)
	}()
	return nil
}

// stop stops serving in diggd's order: replication tailers,
// replication streams, HTTP. The store stays open.
func (n *node) stop() error {
	if n.follower != nil {
		n.follower.Stop()
	}
	n.src.Close()
	err := n.httpSrv.Close()
	n.stopTimeline()
	<-n.done
	return err
}

// shutdown stops serving and closes the store without a final
// checkpoint, so reopening the directory replays everything the run
// wrote.
func (n *node) shutdown() error {
	err := n.stop()
	if cerr := n.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// latestActivity is diggd's follower clock base: the latest sim minute
// with recorded activity.
func latestActivity(s digg.Store, floor digg.Minutes) digg.Minutes {
	t := floor
	for _, st := range s.Stories() {
		if st.SubmittedAt > t {
			t = st.SubmittedAt
		}
		if n := len(st.Votes); n > 0 && st.Votes[n-1].At > t {
			t = st.Votes[n-1].At
		}
		if st.Promoted && st.PromotedAt > t {
			t = st.PromotedAt
		}
	}
	return t
}

// storeState is what must survive a close and reopen.
type storeState struct {
	generation uint64
	stories    int
	votes      int
}

func stateOf(s digg.Store) storeState {
	st := storeState{generation: s.Generation(), stories: s.NumStories()}
	for _, story := range s.Stories() {
		st.votes += len(story.Votes)
	}
	return st
}

// reopens is how many times a run recovers its closed store; recover_s
// is the median of the quieter half (see hostSteal). Closing without a
// checkpoint leaves the directory as it was, so every reopen replays
// the same records.
const reopens = 9

// reopen times shard.Open on a closed store's directory, checks the
// recovered state against want, and closes it again, reopens times.
func reopen(b *bench, o *outcome, dir string, want storeState) error {
	var times []interval
	var replayed int
	for i := 0; i < reopens; i++ {
		runtime.GC() // start each timing from a collected heap, as a fresh process does
		t0 := obs.Now()
		s, err := shard.Open(dir, durableOptions())
		if err != nil {
			return err
		}
		times = append(times, seconds(t0))
		replayed = 0
		for _, r := range s.Recovery().Shards {
			replayed += r.Replayed
		}
		o.attempted++
		if got := stateOf(s); got != want {
			o.fail(1, "reopened store has %+v, closed with %+v", got, want)
		}
		if err := s.Close(); err != nil {
			return err
		}
	}
	o.e2e["recover_s"] = b.host.quietMedian(times)
	o.layers["durable.replayed_records"] = float64(replayed)
	o.layers["durable.replay_records_per_s"] = float64(replayed) / o.e2e["recover_s"]
	return nil
}

// walBytes sums the WAL segment sizes of every shard under dir.
func walBytes(dir string) (int64, error) {
	dirs, err := shard.ShardDirs(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, d := range dirs {
		segs, err := wal.ListSegments(d)
		if err != nil {
			return 0, err
		}
		for _, s := range segs {
			total += s.Size
		}
	}
	return total, nil
}
