// Package durable makes one platform survive restarts: a Store
// write-ahead logs every command to a segmented binary log
// (internal/wal) before applying it to its in-memory *digg.Platform,
// takes periodic full-state checkpoints, and recovers on Open by
// loading the newest valid checkpoint and replaying the WAL tail.
//
// A Store is one shard's log, not a digg.Store: internal/shard routes
// each shard's commands and batch bracket through one, and serves
// every read from the platforms themselves (Unwrap), so reads never
// touch the WAL and the lock-free snapshot read path is unaffected.
// Every durable node is a shard.Store.
//
// Concurrency follows the digg.Store contract: commands (and
// BeginBatch/EndBatch/Checkpoint) require the caller's external write
// synchronization — the serving layer's RWMutex — while reads of the
// platform run under the read side. The only internal concurrency is
// the WAL's interval flusher, which the wal.Writer synchronizes
// itself.
//
// See docs/persistence.md for the on-disk format, fsync trade-offs,
// recovery guarantees and the operator runbook.
package durable

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"diggsim/internal/digg"
	"diggsim/internal/graph"
	"diggsim/internal/obs"
	"diggsim/internal/wal"
)

// Checkpoint cost splits into state encode (CPU, scales with corpus
// size) and file write (disk, includes the tmp-file fsync + rename);
// both run synchronously on the write path when the schedule is due,
// so their tails show up directly in write latency.
var (
	histCkptBuild = obs.Default.Histogram("diggsim_checkpoint_build_seconds", "",
		"Checkpoint state-encode latency (Platform.AppendState).")
	histCkptWrite = obs.Default.Histogram("diggsim_checkpoint_write_seconds", "",
		"Checkpoint file write latency (tmp write, fsync, rename).")
)

// DefaultCheckpointEvery is the automatic checkpoint cadence when
// Options.CheckpointEvery is zero.
const DefaultCheckpointEvery = time.Minute

// Options parameterizes a durable store.
type Options struct {
	// Policy is the promotion policy of the recovered platform (nil
	// means the classic default, as in digg.NewPlatform). Replay
	// re-executes votes through the policy, so it must be the policy
	// the log was written under; a different policy yields a different
	// — internally consistent, but diverged — platform.
	Policy digg.PromotionPolicy
	// Sync is the WAL fsync policy (always, interval, os).
	Sync wal.SyncPolicy
	// SyncEvery is the flush cadence under wal.SyncInterval
	// (wal.DefaultSyncEvery when zero).
	SyncEvery time.Duration
	// SegmentSize is the WAL rotation threshold
	// (wal.DefaultSegmentSize when zero).
	SegmentSize int64
	// CheckpointEvery is the minimum interval between automatic
	// checkpoints, taken synchronously on the write path once due
	// (DefaultCheckpointEvery when zero; negative disables automatic
	// checkpoints — tests and benchmarks call Checkpoint explicitly).
	CheckpointEvery time.Duration
	// Graph, when non-nil, is used by Open instead of reading the data
	// directory's graph file. A sharded store opens N shard directories
	// that all persist the same social graph; injecting the instance
	// makes them share one in-memory copy instead of decoding N.
	Graph *graph.Graph
}

func (o Options) withDefaults() Options {
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = DefaultCheckpointEvery
	}
	return o
}

func (o Options) walOptions() wal.Options {
	return wal.Options{SegmentSize: o.SegmentSize, Sync: o.Sync, SyncEvery: o.SyncEvery}
}

// RecoveryInfo describes what Open did to reconstruct the platform.
type RecoveryInfo struct {
	// CheckpointLSN is the WAL position of the checkpoint recovery
	// started from.
	CheckpointLSN uint64
	// Replayed is the number of WAL records applied after the
	// checkpoint; zero after a clean shutdown.
	Replayed int
	// Rejected counts replayed commands the platform refused — the
	// same refusals it issued during the original run.
	Rejected int
	// TailTruncated reports whether a torn trailing record was cut.
	TailTruncated bool
	// Generation is the recovered platform generation.
	Generation uint64
}

// Store is one durable platform: WAL append first, then apply to the
// platform. Create starts a fresh data directory around an existing
// platform; Open recovers one.
type Store struct {
	p    *digg.Platform
	w    *wal.Writer
	dir  string
	opts Options

	genesis []byte
	rec     RecoveryInfo

	// enc is the per-command encode scratch; batch staging appends
	// into arena so one EndBatch commits the burst as a single WAL
	// append.
	enc      []byte
	batching bool
	arena    []byte
	staged   []wal.Entry

	stateBuf []byte // checkpoint encode scratch
	lastCkpt time.Time

	// err is sticky: after a WAL append fails mid-batch (the platform
	// has applied commands the log will never hold) the store refuses
	// all further writes, bounding the divergence at the failed batch.
	err error

	// commit stamps the newest locally-originated durable append;
	// replication heartbeats read it lock-free (LastCommit) so
	// followers can measure commit→visible freshness. writeTrace is
	// the advisory trace ID of the in-flight write (SetWriteTrace).
	commit     atomic.Pointer[CommitStamp]
	writeTrace atomic.Uint64
}

// CommitStamp identifies the newest locally-originated WAL commit:
// the log head right after the append (exclusive, AppliedLSN
// semantics), the wall-clock commit instant, and the trace ID of the
// write that produced it (0 when untraced). Replicated applies do not
// stamp — only writes this node originated, so a chain of followers
// always measures freshness against the true primary's clock.
type CommitStamp struct {
	LSN      uint64
	UnixNano int64
	TraceID  uint64
}

// LastCommit returns the newest commit stamp — zero before the first
// local write. Safe from any goroutine: the replication source's
// heartbeat path calls it off the write lock.
func (s *Store) LastCommit() CommitStamp {
	if c := s.commit.Load(); c != nil {
		return *c
	}
	return CommitStamp{}
}

// SetWriteTrace records the trace ID of the write about to run, so
// the resulting commit stamp carries it to followers. Attribution is
// advisory: concurrent writers may overwrite each other's ID before
// either commits, which misattributes a stamp but never corrupts it.
func (s *Store) SetWriteTrace(id uint64) { s.writeTrace.Store(id) }

// stampCommit publishes the current log head as the newest commit.
// Runs under the caller's write synchronization, right after a
// successful append.
func (s *Store) stampCommit() {
	s.commit.Store(&CommitStamp{
		LSN:      s.w.NextLSN(),
		UnixNano: time.Now().UnixNano(),
		TraceID:  s.writeTrace.Load(),
	})
}

// Create initializes dir as a new data directory around platform p:
// the immutable social graph file, the genesis record (an opaque
// provenance blob — cmd/diggd stores its generation seed and config as
// JSON), and checkpoint 0 capturing p's full current state (for a
// pregenerated corpus, the corpus itself). The directory must not
// already contain a store.
func Create(dir string, p *digg.Platform, genesis []byte, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := ensureDir(dir); err != nil {
		return nil, err
	}
	if Exists(dir) {
		return nil, fmt.Errorf("durable: %s already contains a store (use Open)", dir)
	}
	// The directory may hold the debris of an interrupted Create — a
	// graph file, a segment with at most the genesis record, temp
	// files — from a crash before the initial checkpoint. No command
	// was ever acknowledged (Exists just said so), so wiping it and
	// starting over loses nothing; without this, the leftover segment
	// would fail the fresh writer's exclusive create forever.
	if err := removeDebris(dir); err != nil {
		return nil, err
	}
	if err := writeGraphFile(dir, p.SocialGraph()); err != nil {
		return nil, err
	}
	// The cleared directory reads as an empty log, which the writer
	// starts at LSN 0.
	w, _, err := openLog(dir, p, 0, opts)
	if err != nil {
		return nil, err
	}
	s := &Store{p: p, w: w, dir: dir, opts: opts, genesis: append([]byte(nil), genesis...)}
	if _, err := w.Append(RecGenesis, genesis); err != nil {
		w.Close()
		return nil, err
	}
	if err := s.Checkpoint(); err != nil {
		w.Close()
		return nil, err
	}
	s.rec = RecoveryInfo{CheckpointLSN: 1, Generation: p.Generation()}
	return s, nil
}

// Exists reports whether dir contains a recoverable durable store:
// any checkpoint file (valid or not — its presence proves a store
// lived here), or a WAL holding at least one command record. A
// directory holding only the debris of an interrupted Create — a
// segment with at most the genesis record and no checkpoint — does
// not count: no command was ever acknowledged, so nothing can be
// lost, and Create cleans it up and starts over (otherwise a crash
// inside the first boot's Create window would leave a directory that
// Open can never recover and every later boot would refuse).
func Exists(dir string) bool {
	cks, err := listCheckpoints(dir)
	if err == nil && len(cks) > 0 {
		return true
	}
	segs, err := wal.ListSegments(dir)
	if err != nil || len(segs) == 0 {
		return false
	}
	return hasCommandRecords(dir)
}

// hasCommandRecords scans the log for any non-genesis record. Scan
// failures count as "has records" — Open is the place that reports
// them properly, not a probe.
func hasCommandRecords(dir string) bool {
	r, err := wal.OpenReader(dir, 0)
	if err != nil {
		return true
	}
	defer r.Close()
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return false
		}
		if err != nil {
			return true
		}
		if rec.Type != RecGenesis {
			return true
		}
	}
}

// removeDebris clears the remains of an interrupted Create: leftover
// segments, the graph file, and orphaned temp files. Callers verify
// via Exists that nothing recoverable lives here first.
func removeDebris(dir string) error {
	if err := wal.RemoveSegments(dir); err != nil {
		return err
	}
	if err := os.Remove(filepath.Join(dir, graphFile)); err != nil && !os.IsNotExist(err) {
		return err
	}
	tmps, err := filepath.Glob(filepath.Join(dir, ".tmp-*"))
	if err != nil {
		return err
	}
	for _, t := range tmps {
		if err := os.Remove(t); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// Open recovers a durable store from an existing data directory: load
// the graph, restore the newest valid checkpoint, replay the WAL tail
// (torn trailing records are truncated; mid-log corruption is a hard
// error), and resume appending. The recovered platform is observably
// identical to the pre-crash platform as of its last durable point.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	g := opts.Graph
	if g == nil {
		var err error
		if g, err = readGraphFile(dir); err != nil {
			return nil, err
		}
	}
	ck, _, _, err := newestCheckpoint(dir)
	if err != nil {
		return nil, err
	}
	p, err := digg.RestorePlatform(g, opts.Policy, ck.State)
	if err != nil {
		return nil, fmt.Errorf("durable: restoring checkpoint lsn %d: %w", ck.LSN, err)
	}
	if p.Generation() != ck.Gen {
		return nil, fmt.Errorf("durable: checkpoint lsn %d: state generation %d, header says %d",
			ck.LSN, p.Generation(), ck.Gen)
	}
	w, rec, err := openLog(dir, p, ck.LSN, opts)
	if err != nil {
		return nil, err
	}
	rec.Generation = p.Generation()
	s := &Store{
		p: p, w: w, dir: dir, opts: opts,
		genesis:  append([]byte(nil), ck.Genesis...),
		rec:      rec,
		lastCkpt: time.Now(),
	}
	return s, nil
}

// openLog replays the log in dir from lsn onto p, then opens the
// writer where replay stopped. The writer cuts a torn tail, and starts
// a fresh log at lsn when the log is empty or ends below lsn (a new
// store, a seeded replica, or a stale log under SyncOS): see
// wal.OpenWriter. A log whose first retained segment starts past lsn
// has lost the records between them and is corrupt.
func openLog(dir string, p *digg.Platform, lsn uint64, opts Options) (*wal.Writer, RecoveryInfo, error) {
	rec := RecoveryInfo{CheckpointLSN: lsn}
	r, err := wal.OpenReader(dir, lsn)
	if err != nil {
		return nil, rec, err
	}
	defer r.Close()
	// A fresh reader stands at lsn, at the log's end below it, or at
	// the first retained record when that lies past lsn.
	if err := checkLogStart(r.End(), lsn); err != nil {
		return nil, rec, err
	}
	if err := replay(r, p, &rec); err != nil {
		return nil, rec, err
	}
	_, _, rec.TailTruncated = r.Torn()
	w, err := wal.OpenWriter(r, lsn, opts.walOptions())
	return w, rec, err
}

// checkLogStart refuses, as wal.ErrCorrupt, a log whose records start
// at first, past lsn, the first record recovery must replay: the
// records between them are gone. A log that ends below lsn starts
// below it too; wal.OpenWriter replaces such a stale log.
func checkLogStart(first, lsn uint64) error {
	if first > lsn {
		return fmt.Errorf("durable: %w: log starts at lsn %d, past checkpoint lsn %d", wal.ErrCorrupt, first, lsn)
	}
	return nil
}

// replay applies every record r returns onto p, until io.EOF.
func replay(r *wal.Reader, p *digg.Platform, rec *RecoveryInfo) error {
	for {
		record, err := r.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			if errors.Is(err, wal.ErrCorrupt) {
				return fmt.Errorf("durable: replay: %w", err)
			}
			return err
		}
		rejected, err := applyRecord(p, record.Type, record.Payload)
		if err != nil {
			return fmt.Errorf("durable: replay lsn %d: %w", record.LSN, err)
		}
		if record.Type == RecGenesis {
			continue
		}
		rec.Replayed++
		if rejected {
			rec.Rejected++
		}
	}
}

// ensureDir creates dir if needed.
func ensureDir(dir string) error {
	return os.MkdirAll(dir, 0o755)
}

// Recovery returns what Create/Open did to establish the store's
// state.
func (s *Store) Recovery() RecoveryInfo { return s.rec }

// Genesis returns the provenance blob stored at log creation.
func (s *Store) Genesis() []byte { return s.genesis }

// Unwrap returns the platform the store logs. Every read goes to it
// directly; mutate it only through the store's commands, or the log
// will not hold the change.
func (s *Store) Unwrap() *digg.Platform { return s.p }

// Dir returns the data directory.
func (s *Store) Dir() string { return s.dir }

// --- commands: WAL append first, then apply ---

// log stages or appends one encoded command record. Outside a batch
// the record is appended (and fsynced per policy) before the command
// applies; inside a batch it is staged for EndBatch's group commit.
func (s *Store) log(typ byte, payload []byte) error {
	if s.batching {
		start := len(s.arena)
		s.arena = append(s.arena, payload...)
		s.staged = append(s.staged, wal.Entry{Type: typ, Payload: s.arena[start:len(s.arena):len(s.arena)]})
		return nil
	}
	if _, err := s.w.Append(typ, payload); err != nil {
		s.err = err
		return err
	}
	s.stampCommit()
	return nil
}

// afterWrite runs the checkpoint schedule after a non-batch command.
func (s *Store) afterWrite() error {
	if s.batching || s.opts.CheckpointEvery <= 0 {
		return nil
	}
	if time.Since(s.lastCkpt) < s.opts.CheckpointEvery {
		return nil
	}
	return s.Checkpoint()
}

// Submit logs and applies a story submission.
func (s *Store) Submit(u digg.UserID, title string, interest float64, t digg.Minutes) (*digg.Story, error) {
	if s.err != nil {
		return nil, s.err
	}
	s.enc = appendSubmit(s.enc[:0], u, title, interest, t)
	if err := s.log(RecSubmit, s.enc); err != nil {
		return nil, err
	}
	st, err := s.p.Submit(u, title, interest, t)
	if cerr := s.afterWrite(); err == nil && cerr != nil {
		return nil, cerr
	}
	return st, err
}

// InstallStory logs the full pre-simulated story and applies it.
func (s *Store) InstallStory(st *digg.Story) error {
	if s.err != nil {
		return s.err
	}
	s.enc = digg.AppendStory(s.enc[:0], st)
	if err := s.log(RecInstallStory, s.enc); err != nil {
		return err
	}
	err := s.p.InstallStory(st)
	if cerr := s.afterWrite(); err == nil && cerr != nil {
		return cerr
	}
	return err
}

// Digg logs and applies a vote.
func (s *Store) Digg(id digg.StoryID, u digg.UserID, t digg.Minutes) (digg.DiggResult, error) {
	if s.err != nil {
		return digg.DiggResult{}, s.err
	}
	s.enc = appendDigg(s.enc[:0], id, u, t)
	if err := s.log(RecDigg, s.enc); err != nil {
		return digg.DiggResult{}, err
	}
	res, err := s.p.Digg(id, u, t)
	if cerr := s.afterWrite(); err == nil && cerr != nil {
		return digg.DiggResult{}, cerr
	}
	return res, err
}

// CompactStory logs and applies a compaction.
func (s *Store) CompactStory(id digg.StoryID) error {
	if s.err != nil {
		return s.err
	}
	s.enc = appendCompact(s.enc[:0], id)
	if err := s.log(RecCompactStory, s.enc); err != nil {
		return err
	}
	err := s.p.CompactStory(id)
	if cerr := s.afterWrite(); err == nil && cerr != nil {
		return cerr
	}
	return err
}

// BeginBatch starts staging command records so the whole burst commits
// as one WAL append and one fsync in EndBatch (digg.Batcher).
func (s *Store) BeginBatch() {
	if s.err != nil || s.batching {
		return
	}
	s.batching = true
	s.arena = s.arena[:0]
	s.staged = s.staged[:0]
}

// EndBatch group-commits the staged records. A nil return is the
// batch's durability acknowledgment (under SyncAlways; under the other
// policies it is the same append-ordering guarantee every command
// has). On append failure the store goes into a sticky failed state:
// the platform has applied commands the log will never hold, so
// accepting further writes would silently widen the divergence.
func (s *Store) EndBatch() error {
	if !s.batching {
		return s.err
	}
	s.batching = false
	if s.err != nil {
		return s.err
	}
	if len(s.staged) > 0 {
		if _, err := s.w.AppendBatch(s.staged); err != nil {
			s.err = err
			return err
		}
		s.stampCommit()
	}
	if s.opts.CheckpointEvery > 0 && time.Since(s.lastCkpt) >= s.opts.CheckpointEvery {
		return s.Checkpoint()
	}
	return nil
}

// Checkpoint synchronously persists the platform's full state,
// anchored at the current WAL position, then prunes older checkpoints
// and WAL segments wholly below it. Runs on the write path when the
// schedule is due, and from the graceful-shutdown hook so a clean
// restart replays zero records. Requires the caller's write
// synchronization (like any command).
func (s *Store) Checkpoint() error {
	if s.err != nil {
		return s.err
	}
	if s.batching {
		return errors.New("durable: Checkpoint inside a batch")
	}
	if err := s.w.Sync(); err != nil {
		s.err = err
		return err
	}
	lsn := s.w.NextLSN()
	buildStart := time.Now()
	s.stateBuf = s.p.AppendState(s.stateBuf[:0])
	histCkptBuild.Observe(time.Since(buildStart))
	writeStart := time.Now()
	_, werr := writeCheckpoint(s.dir, checkpoint{
		LSN: lsn, Gen: s.p.Generation(), Genesis: s.genesis, State: s.stateBuf,
	})
	histCkptWrite.Observe(time.Since(writeStart))
	if werr != nil {
		s.err = werr
		return werr
	}
	if err := pruneCheckpoints(s.dir, lsn); err != nil {
		s.err = err
		return err
	}
	// Seal the active segment so every record below the checkpoint is
	// actually prunable; the retained log then starts at lsn.
	if err := s.w.Rotate(); err != nil {
		s.err = err
		return err
	}
	if err := s.w.RemoveBelow(lsn); err != nil {
		s.err = err
		return err
	}
	s.lastCkpt = time.Now()
	return nil
}

// Sync flushes the WAL to stable storage regardless of policy, making
// everything logged so far a durable point.
func (s *Store) Sync() error {
	if s.err != nil {
		return s.err
	}
	if err := s.w.Sync(); err != nil {
		s.err = err
		return err
	}
	return nil
}

// Close syncs and closes the WAL. It does not checkpoint — callers
// that want a replay-free next boot call Checkpoint first (cmd/diggd's
// shutdown path does).
func (s *Store) Close() error {
	return s.w.Close()
}
