// Command diggd serves a simulated Digg platform over HTTP/JSON — the
// scrape target for cmd/diggscrape, standing in for digg.com circa
// June 2006.
//
// Usage:
//
//	diggd [-addr :8080] [-small] [-seed N] [-live] [-speedup 600]
//	      [-submissions-per-hour 60] [-export DIR] [-pprof ADDR]
//	      [-data-dir DIR] [-fsync interval] [-checkpoint-interval 1m]
//	      [-shards N] [-slow-threshold 250ms] [-profile-dir DIR]
//	      [-replica-of URL] [-ready-max-lag 5s]
//	diggd -promote -peers URL1,URL2,...
//
// The server generates a corpus at startup. In the default static mode
// it then serves the corpus read-mostly (live submissions and votes are
// still accepted: POST /v1/stories, POST /v1/stories/{id}/digg), with
// the site clock advancing in real time from the snapshot instant so
// the upcoming-queue view does not go stale.
//
// With -live the site keeps evolving on its own: a real-time simulation
// clock maps wall time to sim minutes at -speedup sim-minutes per
// wall-minute, new stories arrive as a Poisson process over the
// calibrated submitter mix (-submissions-per-hour, per sim-hour), and
// the behaviour model keeps casting votes and promoting stories while
// the server runs. Live platform events stream over SSE at
// GET /v1/stream and live metrics at GET /v1/stats. On shutdown,
// -export DIR flushes the final platform state — pregenerated corpus
// plus everything that happened live — to dataset CSV files.
//
// With -data-dir the platform is durable (internal/durable): every
// write is logged to a segmented write-ahead log before it applies,
// checkpoints land every -checkpoint-interval, and -fsync selects the
// always/interval/os durability policy. A first boot generates the
// corpus and seeds the directory; every later boot recovers — newest
// checkpoint plus WAL tail — and continues serving with zero
// observable state change. Graceful shutdown writes a final
// checkpoint, so a clean restart replays nothing. Inspect a data
// directory with `diggstats -wal DIR`; see docs/persistence.md.
//
// Every durable node is a shard.Store (internal/shard). With -shards N
// (N >= 2) stories are partitioned across N shard-local stores: writes
// route by story id, batch writes apply per-shard concurrently, and
// with -data-dir each shard keeps its own write-ahead log under
// DIR/shard-NNNN/, so a batch costs one overlapped fsync per shard
// instead of a serial one. A one-shard store keeps its log at the root
// of DIR. -shards only matters when a directory is created: on
// recovery the layout on disk decides the shard count, and a damaged
// layout (a gap in the shard directories, a root store beside them)
// stops the boot rather than being created over. Recovery opens
// every shard WAL and reconciles them; see docs/sharding.md.
//
// With -replica-of URL the node boots as a read-only follower
// (internal/repl, docs/replication.md): it bootstraps -data-dir from
// the primary's newest checkpoint, tails the primary's WAL streams,
// and serves the full read surface from its own store. Writes answer
// 503 read_only_replica; every response carries X-Replica-Lag; and
// GET /readyz gates on staleness staying under -ready-max-lag. Every
// durable node (primary or follower) serves the replication surface
// under /repl/v1/. `diggd -promote -peers ...` runs the failover
// election: it promotes the reachable follower with the highest
// applied LSN and prints the winner's URL.
//
// Observability (docs/observability.md): every request carries an
// X-Trace-Id; requests at or above -slow-threshold (streams excepted)
// are retained with their spans in the slow-trace ring (GET /debug/obs)
// and logged.
// Latency histograms for the serve/write/durability paths export in
// Prometheus format at GET /metrics. With -profile-dir the server
// continuously rotates CPU and heap profiles into DIR so the window
// covering a latency regression is already on disk. Lifecycle logging
// is structured (log/slog text) on stderr.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux, served by -pprof
	"os"
	"os/signal"
	"strings"
	"syscall"
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

// logger is the structured lifecycle log: startup, recovery, shutdown
// and slow-request lines all go through it, so diggd's stderr is
// machine-parseable (slog text format, key=value).
var logger = slog.New(slog.NewTextHandler(os.Stderr, nil))

// genesisInfo is the provenance blob stored in the data directory's
// genesis record: the seed and full generation config, so the social
// graph and every RNG substream of the corpus are reconstructible from
// the directory alone, and a recovering boot serves with the same
// calibration it was created with.
type genesisInfo struct {
	Seed      uint64         `json:"seed"`
	CreatedAt string         `json:"created_at"`
	Config    dataset.Config `json:"config"`
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	small := flag.Bool("small", true, "use the reduced corpus (default on for quick startup)")
	seed := flag.Uint64("seed", 20060630, "corpus seed")
	rate := flag.Float64("rate", 0, "rate limit in requests/second (0 = unlimited)")
	trustLoopback := flag.Bool("trust-loopback", false, "exempt loopback (127.0.0.1/::1) clients from -rate limiting, e.g. for a co-located diggload harness")
	verbose := flag.Bool("v", false, "log every request")
	liveMode := flag.Bool("live", false, "keep simulating in real time: new submissions, votes and promotions while serving")
	speedup := flag.Float64("speedup", 600, "live mode: simulation minutes per wall-clock minute")
	subsPerHour := flag.Float64("submissions-per-hour", 60, "live mode: mean story submissions per simulation hour")
	exportDir := flag.String("export", "", "live mode: flush the final platform state to dataset CSVs in this directory on shutdown")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for profiling live serving")
	dataDir := flag.String("data-dir", "", "durable mode: write-ahead log + checkpoints in this directory; boots by recovery when it already holds a store")
	fsync := flag.String("fsync", "interval", "durable mode fsync policy: always, interval or os")
	ckptEvery := flag.Duration("checkpoint-interval", time.Minute, "durable mode: minimum interval between automatic checkpoints")
	shards := flag.Int("shards", 1, "partition stories across N shard-local stores; with -data-dir each shard keeps its own WAL, and an existing directory keeps the shard count it was created with (see docs/sharding.md)")
	slowThreshold := flag.Duration("slow-threshold", 250*time.Millisecond, "retain and log traces of requests at least this slow (0 disables slow-trace capture)")
	profileDir := flag.String("profile-dir", "", "continuously rotate CPU and heap profiles into this directory (see docs/observability.md)")
	profilePeriod := flag.Duration("profile-period", 30*time.Second, "length of each continuous-profiling capture window")
	replicaOf := flag.String("replica-of", "", "boot as a read-only follower of this primary base URL (requires -data-dir; see docs/replication.md)")
	peers := flag.String("peers", "", "comma-separated peer base URLs for -promote's failover election")
	promote := flag.Bool("promote", false, "failover: promote the reachable peer with the highest applied LSN among -peers, print the winner, and exit")
	readyMaxLag := flag.Duration("ready-max-lag", httpapi.DefaultReadyMaxLag, "follower readiness: /readyz fails while replication staleness exceeds this bound")
	flag.Parse()
	if *shards < 1 {
		fatal(fmt.Errorf("-shards must be >= 1, got %d", *shards))
	}

	if *promote {
		if *peers == "" {
			fatal(errors.New("-promote needs -peers URL1,URL2,..."))
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		winner, err := repl.ElectAndPromote(ctx, strings.Split(*peers, ","))
		if err != nil {
			fatal(err)
		}
		fmt.Println(winner)
		return
	}
	if *replicaOf != "" {
		if *dataDir == "" {
			fatal(errors.New("-replica-of needs -data-dir for the follower's own log"))
		}
		if *liveMode {
			fatal(errors.New("-replica-of and -live are mutually exclusive: a follower replays the primary's writes"))
		}
	}

	if *pprofAddr != "" {
		go func() {
			logger.Info("pprof listening", "url", "http://"+*pprofAddr+"/debug/pprof/")
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				logger.Error("pprof server failed", "err", err)
			}
		}()
	}

	syncPolicy, err := wal.ParseSyncPolicy(*fsync)
	if err != nil {
		fatal(err)
	}
	dopts := durable.Options{Sync: syncPolicy, CheckpointEvery: *ckptEvery}

	cfg := dataset.DefaultConfig()
	if *small {
		cfg = dataset.SmallConfig()
	}
	cfg.Seed = *seed

	// Establish the store: recover an existing data directory, or
	// generate the corpus (and, with -data-dir, seed a new directory
	// around it). Everything downstream compiles against digg.Store,
	// so durability is only this constructor choice. Every durable
	// node — created, recovered or follower — is a shard.Store; the
	// layout on disk decides its shard count, -shards only matters at
	// creation.
	var (
		store   digg.Store
		dstore  *shard.Store // the durable store, nil without -data-dir
		rankOf  func(digg.UserID) int
		startAt digg.Minutes
		// follower is set when booting with -replica-of.
		follower *repl.Follower
	)
	if *replicaOf != "" {
		// Follower boot: seed (or resume) the local directory from the
		// primary's checkpoint, open it exactly as a restarting primary
		// would, and tail the primary's WAL streams. A diverged directory
		// (a demoted primary with unreplicated records) is wiped and
		// re-seeded; see docs/replication.md.
		tr := &repl.HTTPTransport{Base: strings.TrimRight(*replicaOf, "/")}
		node, err := repl.Bootstrap(context.Background(), tr, *dataDir, dopts)
		if err != nil {
			fatal(err)
		}
		dstore = node.Sharded
		follower = repl.NewFollower(node.Target, tr, repl.Options{
			StateDir: *dataDir,
			Primary:  *replicaOf,
		})
		logger.Info("bootstrapped follower",
			"primary", *replicaOf, "dir", *dataDir, "shards", node.Shards, "stories", dstore.NumStories())
	} else if *dataDir != "" && shard.Exists(*dataDir) {
		dstore, err = shard.Open(*dataDir, dopts)
		if err != nil {
			fatal(err)
		}
		rec := dstore.Recovery()
		var replayed, rejected uint64
		torn := 0
		for _, r := range rec.Shards {
			replayed += uint64(r.Replayed)
			rejected += uint64(r.Rejected)
			if r.TailTruncated {
				torn++
			}
		}
		logger.Info("recovered durable store",
			"dir", *dataDir,
			"shards", dstore.ShardCount(),
			"stories", dstore.NumStories(),
			"generation", rec.Generation,
			"replayed", replayed,
			"rejected", rejected,
			"trimmed", rec.Trimmed,
			"torn_shards", torn)
	} else {
		logger.Info("generating corpus", "users", cfg.Users, "submissions", cfg.Submissions)
		ds, err := dataset.Generate(cfg)
		if err != nil {
			fatal(err)
		}
		store = ds.Platform
		startAt = cfg.SnapshotAt
		rankOf = ds.RankOf
		if *dataDir != "" {
			genesis, err := json.Marshal(genesisInfo{
				Seed: *seed, CreatedAt: time.Now().UTC().Format(time.RFC3339), Config: cfg,
			})
			if err != nil {
				fatal(err)
			}
			dstore, err = shard.Create(*dataDir, ds.Platform, *shards, genesis, dopts)
			if err != nil {
				fatal(err)
			}
			store = dstore
			logger.Info("created durable store",
				"dir", *dataDir, "shards", *shards, "fsync", syncPolicy.String(), "checkpoint_every", *ckptEvery)
		} else if *shards > 1 {
			sstore, err := shard.FromPlatform(ds.Platform, *shards)
			if err != nil {
				fatal(err)
			}
			store = sstore
			logger.Info("sharded in-memory store", "shards", *shards)
		}
	}
	if store == nil {
		// A recovered or follower store resumes its clock from its own
		// latest activity, with the calibration it was created with.
		var gi genesisInfo
		if err := json.Unmarshal(dstore.Genesis(), &gi); err == nil && gi.Config.Users > 0 {
			cfg = gi.Config
		}
		store = dstore
		startAt = latestActivity(dstore, cfg.SnapshotAt)
	}
	stories := store.NumStories()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *profileDir != "" {
		go func() {
			opts := obs.ProfilerOptions{
				Period: *profilePeriod,
				Logf: func(format string, args ...any) {
					logger.Info("profiler", "msg", fmt.Sprintf(format, args...))
				},
			}
			if err := obs.CaptureProfiles(ctx, *profileDir, opts); err != nil {
				logger.Error("continuous profiling stopped", "err", err)
			}
		}()
		logger.Info("continuous profiling", "dir", *profileDir, "period", *profilePeriod)
	}

	var svc *live.Service
	var srv *httpapi.Server
	liveErr := make(chan error, 1)
	if *liveMode {
		// Live ranks must reflect live promotions, so rank lookups go to
		// the platform instead of the frozen generation-time snapshot.
		srv = httpapi.NewServer(store, startAt, nil)
		svc, err = live.NewService(store, live.Config{
			Speedup:            *speedup,
			SubmissionsPerHour: *subsPerHour,
			Seed:               *seed + 1 + store.Generation(),
			StartAt:            startAt,
			Agent:              cfg.Agent,
			SubmitterZipfS:     cfg.SubmitterZipfS,
			InterestExponent:   cfg.InterestExponent,
			TopUserListSize:    cfg.TopUserListSize,
		})
		if err != nil {
			fatal(err)
		}
		srv.AttachLive(svc)
		go func() { liveErr <- svc.Run(ctx) }()
		logger.Info("live mode", "speedup", *speedup, "submissions_per_sim_hour", *subsPerHour)
	} else {
		// Static mode: the corpus is frozen but the site clock still
		// advances in real time from the snapshot, so the upcoming-queue
		// view (and default timestamps for manual posts) never go stale.
		// After recovery there is no generation-time rank snapshot;
		// rankOf stays nil and ranks come from the store.
		srv = httpapi.NewServer(store, startAt, rankOf)
		clock := live.NewClock(time.Now(), startAt, 1)
		srv.SetNowFunc(func() digg.Minutes { return clock.Now(time.Now()) })
	}

	// The metrics timeline samples the registry once a second into a
	// ~15-minute ring: GET /debug/timeline serves windowed deltas,
	// rates, and histogram quantiles from it, and the multi-window SLO
	// burn-rate evaluator it feeds turns /readyz degraded before users
	// notice a freshness or latency regression.
	timeline := obs.NewTimeline(obs.Default, 900, time.Second)
	go timeline.Run(ctx)
	srv.AttachTimeline(timeline, httpapi.DefaultSLOs()...)

	if follower != nil {
		srv.AttachRepl(follower, *readyMaxLag)
	}
	// Any node with its own write-ahead log serves the replication
	// surface under /repl/v1/: a primary streams to followers, a
	// follower answers the status/promote calls elections make. Durable
	// nodes also stamp the accepting request's trace ID next to each
	// commit, so a follower heartbeat can name the write whose
	// visibility it just confirmed (end-to-end freshness tracing).
	var replSrc *repl.Source
	if dstore != nil {
		srv.SetWriteTraceFunc(func(id uint64) {
			for i := 0; i < dstore.ShardCount(); i++ {
				dstore.DurableShard(i).SetWriteTrace(id)
			}
		})
		replSrc = &repl.Source{Shards: repl.SourceShardsOf(dstore)}
		if follower != nil {
			replSrc.Role = func() string {
				if follower.ReadOnly() {
					return "follower"
				}
				return "primary"
			}
			replSrc.Promote = follower.Promote
		}
		srv.MountRepl(replSrc)
		logger.Info("replication surface mounted", "shards", dstore.ShardCount(), "path", "/repl/v1/")
	}

	metrics := httpapi.NewMetrics()
	srv.AttachMetrics(metrics)
	handler := http.Handler(srv.Handler())
	if *verbose {
		handler = httpapi.LoggingMiddleware(os.Stderr, handler)
	}
	// Tracer sits inside the rate limiter so rejected requests are not
	// traced, and outside the router so every served request gets an
	// X-Trace-Id and a chance at the slow-trace ring.
	tracer := httpapi.NewTracer(*slowThreshold, logger)
	handler = tracer.Middleware(handler)
	if *rate > 0 {
		limiter := httpapi.NewRateLimiter(*rate, int(*rate)+1)
		if *trustLoopback {
			limiter.TrustLoopback()
		}
		handler = limiter.Middleware(handler)
	}
	handler = metrics.Middleware(handler)
	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}

	if follower != nil {
		follower.Start()
		logger.Info("tailing primary", "primary", *replicaOf, "ready_max_lag", *readyMaxLag)
	}

	errCh := make(chan error, 1)
	go func() {
		logger.Info("serving", "stories", stories, "addr", *addr)
		errCh <- httpServer.ListenAndServe()
	}()
	// On a signal, both ctx.Done and the live goroutine's nil send race
	// to wake this select; either way the graceful path below must run,
	// so the liveErr case falls through to it too.
	liveDrained := false
	select {
	case <-ctx.Done():
	case err := <-liveErr:
		if err != nil {
			fatal(err)
		}
		liveDrained = true // Run returned nil: ctx was cancelled
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
		return
	}
	// Stop replication before draining HTTP: the tailers' applies stop,
	// and closing the source ends the otherwise-unbounded WAL streams so
	// followers reconnect elsewhere instead of riding the drain deadline.
	if follower != nil {
		follower.Stop()
	}
	if replSrc != nil {
		replSrc.Close()
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpServer.Shutdown(shutdownCtx); err != nil {
		// Long-lived SSE streams (GET /v1/stream) never finish on
		// their own, so a connected subscriber always rides into the
		// drain deadline. Force-close the remaining connections rather
		// than dying: the export and final-checkpoint paths below must
		// still run, or a clean restart would replay the WAL tail.
		if !errors.Is(err, context.DeadlineExceeded) {
			fatal(err)
		}
		if err := httpServer.Close(); err != nil {
			fatal(err)
		}
	}
	if svc != nil {
		if !liveDrained {
			if err := <-liveErr; err != nil {
				fatal(err)
			}
		}
		if *exportDir != "" {
			out := svc.Export()
			if err := out.Save(*exportDir); err != nil {
				fatal(err)
			}
			logger.Info("exported final state",
				"stories", len(out.Stories), "promoted", len(out.FrontPage), "dir", *exportDir)
		}
	}
	if dstore != nil {
		// Final checkpoint + WAL sync: the HTTP server has drained and
		// the live stepper has stopped, so no writer remains and the
		// next boot replays zero records (every shard checkpoints).
		if err := dstore.Checkpoint(); err != nil {
			fatal(err)
		}
		if err := dstore.Close(); err != nil {
			fatal(err)
		}
		logger.Info("final checkpoint", "generation", dstore.Generation(), "dir", *dataDir)
	}
	logger.Info("shut down cleanly")
}

// latestActivity returns the latest simulation minute with recorded
// activity — the clock base a recovering server resumes from, so the
// timeline continues instead of rewinding to the corpus snapshot.
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

func fatal(err error) {
	logger.Error(err.Error())
	os.Exit(1)
}
