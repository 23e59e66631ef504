// Package diggsim is a full reproduction of Lerman & Galstyan, "Analysis
// of Social Voting Patterns on Digg" (WOSN/SIGCOMM 2008): a simulated
// Digg platform, a two-mechanism interest-spread model, cascade
// analysis, a C4.5 interestingness predictor, an HTTP scrape pipeline,
// and a harness regenerating every table and figure of the paper.
//
// Corpus generation — the substrate behind every experiment — runs on
// an event-driven scheduler (internal/agent): instead of stepping each
// story minute-by-minute over a multi-day horizon, the simulator jumps
// between pending Friends-interface exposures (a minute-bucketed timing
// wheel) and interest-based discovery votes (sampled exponential
// inter-arrival gaps, thinned against the decaying novelty rate), with
// per-story voter and audience sets held in epoch-stamped dense buffers
// reused across stories. Stories are statistically independent given
// the graph, so internal/dataset fans them out across a worker pool;
// each story draws from a random substream keyed by (Seed, story
// index), which makes the corpus bit-identical for every worker count —
// determinism is the API contract, parallelism is just scheduling (see
// Config.Workers and the -workers flag on cmd/diggsim and
// cmd/experiments).
//
// The platform also runs as a live service (internal/live): cmd/diggd
// -live maps wall-clock time to simulation minutes at a configurable
// speedup, keeps submitting stories as a Poisson process over the
// calibrated submitter mix, and steps every live story's pending votes
// through the same event engine (agent.Stepper) while the HTTP API
// serves concurrent readers — so scrapes race a genuinely evolving
// site, the situation the paper's crawler actually faced. Typed
// platform events (submit, digg, promote, rank-change) stream over
// Server-Sent Events at /v1/stream through a bounded fan-out bus that
// slow subscribers cannot stall, live metrics are at /v1/stats, and a
// graceful shutdown can flush the whole run to the same dataset files
// a batch generation produces.
//
// Serving reads is lock-free (internal/httpapi): the write side —
// the live stepper after each tick, and the HTTP submit/digg handlers
// — pre-computes the front page, upcoming queue, story summaries and
// top-user list, pre-serializes them to JSON bytes, and publishes the
// immutable snapshot through an atomic pointer. Hot read handlers
// write those bytes straight to the wire with zero allocations and
// answer conditional GETs with 304s via a generation-derived ETag,
// while digg.Platform's generation and per-story version counters let
// each publication re-encode only what changed. Readers therefore
// never wait behind the simulation writer: the shared RWMutex guards
// only writes, snapshot rebuilds and story details newer than the
// published snapshot (see internal/httpapi's package documentation for
// the architecture).
//
// The HTTP surface is versioned (internal/apiv1): /v1/* speaks a
// frozen, transport-agnostic contract — request/response types, a
// machine-readable error envelope with stable codes, opaque
// generation-stamped cursors on every list endpoint, and batch write
// endpoints (diggs:batch, stories:batch) that apply up to a thousand
// votes or submissions as one write transaction. It is the only HTTP
// surface: each endpoint has one handler, one error envelope and one
// write fence. Golden fixtures pin the wire format and CI refuses
// contract drift without a version note in docs/api.md.
//
// Between the statistical core and every serving consumer sits
// digg.Store, the command/query interface: httpapi.Server,
// live.Service, the agent stepper and the dataset exporter all compile
// against it. The in-memory *digg.Platform and the sharded store below
// implement it, and batching (BeginBatch/EndBatch), bulk writes
// (DiggMany/SubmitMany) and the shard layout are part of it, so every
// consumer takes one code path whatever it serves (a platform's batch
// bracket does nothing, its bulk writes are in-order loops, and it
// reports no shards).
//
// Durability comes from the durability layer (internal/wal +
// internal/durable): under diggd -data-dir every shard's commands go
// through a durable.Store that write-ahead logs each one — a segmented
// binary log with fixed CRC32-C record headers and a genesis record
// holding the run's seed and config — before applying it, takes
// periodic atomically-renamed full-state checkpoints, and truncates
// log segments the newest checkpoint covers. A restart recovers the
// newest valid checkpoint plus the replayed WAL tail (torn trailing
// records are truncated, mid-log corruption refuses recovery) and
// reproduces the platform with zero observable state change. Batch
// endpoints (through DiggMany/SubmitMany) and each live tick (through
// the store's batch bracket) group their whole write burst into one
// WAL append and one fsync per shard, so durable batch throughput
// stays within ~13% of the in-memory rate, while reads never touch the
// WAL at all (the lock-free snapshot path is unchanged). Three -fsync
// policies trade machine-crash durability against write latency;
// `diggstats -wal` inspects a data directory. See docs/persistence.md.
// Cursors ride the snapshot infrastructure:
// every list page, at any depth, is cut lock-free from the published
// snapshot's pre-rendered bytes; the cursor's boundary key
// (submission index, promotion index, story id, rank or link index —
// each chosen to stay stable under the live writer) resumes iteration
// without duplicating or skipping an entry even as new generations
// publish between pages.
//
// Above a certain write rate one platform lock and one WAL fsync
// become the ceiling, so the write path shards (internal/shard):
// diggd -shards N partitions stories across N shard-local platforms —
// story ID modulo N over interleaved dense ID sequences, so the
// merged story sequence is bit-identical to a single platform's —
// each shard's commands optionally logged by its own durable.Store in
// a private WAL directory (data-dir/shard-0000, ...). Every durable
// node is a shard.Store: without -shards, diggd -data-dir keeps its
// one shard at the root of the data directory, and on recovery the
// layout on disk decides the shard count. Batch writes
// split into per-shard sub-batches applied concurrently, one WAL
// append and one overlapped fsync per shard per burst, so vote
// throughput scales with cores (BenchmarkShardedBatchDigg; first
// data point in BENCH_shard.json via cmd/benchjson); reads
// scatter-gather through merged story and promotion views that
// preserve single-platform ordering; every write, recovery and
// replicated apply grows those views through one fold, which keeps
// each shard's own promotion order and merges shards by promotion
// time, so a one-shard follower serves its primary's exact front page
// and a restarted follower serves what a restarted primary serves.
// The composite generation is the
// sum of the per-shard generations — strictly monotonic, so ETags
// and snapshot republishing are unchanged — and v1 cursors carry the
// per-shard generation vector, keeping the no-duplicate/no-skip
// pagination guarantee and refusing cursors minted under a different
// shard layout. Crash recovery opens every shard independently,
// trims unacknowledged stories past the first hole in the merged ID
// sequence (a burst acks only after every shard's fsync), so a torn
// tail in one shard's WAL cannot leave phantom stories, and then
// folds the shards into the merged views. GET /metrics
// exposes per-shard write/replay/generation counters in Prometheus
// text format, and diggstats -wal reports shard-by-shard health. See
// docs/sharding.md.
//
// Production observability (internal/obs) makes every layer's latency
// a measured distribution rather than a guess: lock-free,
// allocation-free log-bucketed histograms (two atomic adds per
// observation, quantiles interpolated from mergeable snapshots on the
// cold path) record HTTP request latency per route class, WAL append
// vs fsync, checkpoint build vs write, per-shard batch apply and
// scatter-gather merge, snapshot rebuilds, and live step duration —
// without breaking the read path's 0-alloc guarantee (the wrapper is
// two monotonic clock reads inside the route table). GET /metrics
// exports them as Prometheus histogram series and GET /debug/timeline
// as windowed trends with SLO burn rates; GET /debug/obs dumps a ring
// of recent slow traces, each request tagged with an X-Trace-Id and
// span-timed through the batch write pipeline (decode, apply,
// republish); diggstats -obs pretty-prints the dump, and diggd
// -profile-dir continuously rotates CPU/heap profiles so the profile
// covering a regression window is already on disk. BENCH_obs.json records read/write latency
// quantiles under a mixed workload via the histogram-aware
// cmd/benchjson. See docs/observability.md.
//
// Durability makes one node survive a restart; replication
// (internal/repl) makes the service survive the node. A primary diggd
// streams its WAL — the same CRC-framed records the durability layer
// fsyncs — over HTTP chunked responses under /repl/v1/, resumable
// from any retained LSN. A follower (diggd -replica-of URL)
// bootstraps from the primary's newest checkpoint, replays and tails
// the log into its own shard.Store (shard.OpenFollower, whatever the
// primary's shard count), and serves the entire read
// surface through the same lock-free snapshot path at primary speed
// (BenchmarkServedReadsFollower; BENCH_repl.json), while writes
// answer 503 read_only_replica and every response carries
// X-Replica-Lag. GET /readyz gates rotation on replication health,
// /metrics grows per-shard applied/shipped LSN gauges and a lag
// histogram, diggstats -wal reports a follower's recorded position
// (with a -max-lag bound for monitoring), and diggd -promote runs a
// highest-LSN election to fail over. A chaos harness (fault-injecting
// transport: drops, partitions, kill/restart, failover-and-rejoin)
// pins convergence to byte-identical stores under the race detector.
// See docs/replication.md.
//
// The load harness (internal/load + cmd/diggload) closes the loop on
// both of those layers: open-loop, coordinated-omission-safe drivers
// (wrk2-style intended-arrival timelines; latency is completion minus
// intended start, so a server stall inflates the recorded tail instead
// of silently shedding offered load) generate the four client
// populations a social-news site sees — Zipf-skewed readers matching
// the paper's measured attention skew, cursor crawlers, batch
// digg/submit writers, and swarms of concurrent SSE subscribers — as
// one mixed scenario against a running diggd, then gate the run on
// client-side thresholds from the client's obs histograms and on the
// server's own SLO table (the one /readyz burns on), read from its
// /debug/timeline over the run window. Verdicts land in
// BENCH_load.json (cmd/benchjson envelope), CI runs a smoke
// scenario on every push, and diggd -trust-loopback exempts the
// co-located harness from per-IP rate limits. Underneath the swarm,
// live.Bus is a shared append-only broadcast ring: publish is O(1)
// regardless of subscriber count (measured flat from 100 to 100,000
// subscribers), subscribers pull at their own cursors, a lapped
// cursor surfaces as an exact drop count rather than a stall, and the
// SSE layer turns that lag into an `id:`-numbered, Last-Event-ID-
// resumable stream with an explicit lag event on overflow — which the
// v1 client's Stream wraps into transparent reconnect-and-resume. See
// docs/load.md.
//
// The docs/ directory documents each serving subsystem (api, load,
// observability, persistence, replication, sharding); `go run
// ./cmd/experiments -list` names every regenerable figure, table,
// extension and ablation; BENCHMARK.json declares the end-to-end
// benchmark (diggbench/). The benchmarks in bench_test.go regenerate
// one experiment per paper artifact; run them with:
//
//	go test -bench=. -benchmem
package diggsim
