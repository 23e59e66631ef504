package repl

// follower.go is the receiving side of replication. A Follower owns
// one tailer goroutine per shard; each tailer streams frames from the
// primary, deduplicates and orders them by LSN, and applies contiguous
// batches to the target store under the follower's write lock — the
// same lock the HTTP serving layer adopts (Locker), so the lock-free
// snapshot read path works over a follower exactly as it does over a
// live primary.
//
// Failure handling is two-tiered:
//
//   - Transient (connection refused, stream cut, torn frame, LSN gap
//     from a dropped frame): reconnect from the applied LSN with
//     jittered exponential backoff. The follower keeps serving reads
//     the whole time; only its staleness grows.
//   - Fatal (requested LSN pruned → ErrSnapshotGone; local log ahead
//     of the source → ErrDiverged; a replicated record failing to
//     apply): the tailers stop and Err() reports why. Reads continue
//     from the last applied state; the operator (or cmd/diggd's boot
//     path, next start) wipes and re-bootstraps.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"diggsim/internal/obs"
	"diggsim/internal/shard"
	"diggsim/internal/wal"
)

// Target is the store surface a follower applies a replication stream
// into. A shard.Store with any shard count adapts to it
// (NewShardTarget).
type Target interface {
	// ShardCount is the number of independent WAL streams.
	ShardCount() int
	// AppliedLSN returns a shard's log position. Must be race-safe
	// without the follower lock (the WAL writer has its own mutex).
	AppliedLSN(shard int) uint64
	// ApplyReplicated appends and applies a contiguous run of records
	// starting at lsn. Called under the follower's write lock.
	ApplyReplicated(shard int, lsn uint64, entries []wal.Entry) error
	// Absorb folds applied per-shard advances into the merged read
	// views. Called under the follower's write lock, after every
	// successful ApplyReplicated.
	Absorb()
	// Promote converts the store into a writable primary. Called under
	// the follower's write lock, after the tailers have stopped.
	Promote() error
}

// NewShardTarget adapts a store opened with shard.OpenFollower.
func NewShardTarget(s *shard.Store) Target { return shardTarget{s} }

type shardTarget struct{ s *shard.Store }

func (t shardTarget) ShardCount() int         { return t.s.ShardCount() }
func (t shardTarget) AppliedLSN(i int) uint64 { return t.s.ShardAppliedLSN(i) }
func (t shardTarget) Absorb()                 { t.s.AbsorbReplicated() }
func (t shardTarget) Promote() error {
	_, err := t.s.PromoteToPrimary()
	return err
}
func (t shardTarget) ApplyReplicated(i int, lsn uint64, entries []wal.Entry) error {
	return t.s.ApplyReplicated(i, lsn, entries)
}

// Options tunes a Follower. The zero value gets production defaults;
// tests tighten the timings.
type Options struct {
	// BackoffMin/BackoffMax bound the jittered exponential reconnect
	// backoff (defaults 50ms and 2s).
	BackoffMin time.Duration
	BackoffMax time.Duration
	// BatchMax caps records per locked apply during catch-up
	// (default 256).
	BatchMax int
	// StateDir, when set, receives a repl-state.json snapshot of the
	// replication position about once a second (read offline by
	// diggstats -wal).
	StateDir string
	// Primary labels the upstream (a URL) in state and status output.
	Primary string
}

func (o Options) withDefaults() Options {
	if o.BackoffMin <= 0 {
		o.BackoffMin = 50 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Second
	}
	if o.BatchMax <= 0 {
		o.BatchMax = 256
	}
	return o
}

// histFreshFollower measures primary commit→follower visible: the gap
// between a write committing on the primary (durable.CommitStamp) and
// the heartbeat at which this follower confirms it has applied — and,
// via afterApply, republished — that LSN. Registered unlabeled at
// package load so the family exports from every node, followers or not.
var histFreshFollower = obs.Default.Histogram(obs.FreshnessFollowerFamily, "",
	"Primary commit to follower applied and republished, confirmed at heartbeat receipt.")

// followerShard is one shard's replication position, all atomics so
// status, metrics and headers read them without the store lock.
type followerShard struct {
	applied     atomic.Uint64 // our log position
	shipped     atomic.Uint64 // primary head per the last heartbeat
	lastShip    atomic.Int64  // ship wall-clock of the last heartbeat (unix nanos)
	lastContact atomic.Int64  // local wall-clock of the last frame (unix nanos)
	// commitSeen dedups freshness observations: the newest primary
	// commit LSN already measured, so heartbeats repeating a stamp
	// (idle primary) observe it once. commitTrace is the trace ID of
	// that commit's originating write — the cross-process join signal.
	commitSeen  atomic.Uint64
	commitTrace atomic.Uint64
}

// ShardStatus is one shard's replication position as reported by
// ShardStatuses.
type ShardStatus struct {
	Shard       int     `json:"shard"`
	AppliedLSN  uint64  `json:"applied_lsn"`
	ShippedLSN  uint64  `json:"shipped_lsn"`
	LagSeconds  float64 `json:"lag_seconds"`
	LastContact float64 `json:"last_contact_age_seconds"`
	// CommitTraceID is the trace ID of the newest primary write this
	// follower has confirmed applied — the join key between a primary
	// request trace and this follower's replication stream.
	CommitTraceID string `json:"commit_trace_id,omitempty"`
}

// Follower replicates a primary into a local target store.
type Follower struct {
	target Target
	tr     Transport
	opts   Options

	// mu is the store's write lock: tailers take it to apply, the
	// serving layer adopts it (Locker) for fallback reads and snapshot
	// rebuilds.
	mu         sync.RWMutex
	afterApply func()
	readOnly   atomic.Bool

	shards []followerShard

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	fatalMu sync.Mutex
	fatal   error

	stateStamp atomic.Int64

	ctrReconnects *obs.Counter
	ctrApplied    *obs.Counter
	histLag       []*obs.Histogram
}

// NewFollower wires a follower around an opened target store and a
// transport to its primary. Call Start to begin tailing.
func NewFollower(target Target, tr Transport, opts Options) *Follower {
	f := &Follower{
		target: target,
		tr:     tr,
		opts:   opts.withDefaults(),
		shards: make([]followerShard, target.ShardCount()),
	}
	f.readOnly.Store(true)
	f.ctrReconnects = obs.Default.Counter("diggsim_repl_reconnects_total",
		"Replication stream reconnect attempts.")
	f.ctrApplied = obs.Default.Counter("diggsim_repl_records_applied_total",
		"WAL records applied from replication streams.")
	f.histLag = make([]*obs.Histogram, target.ShardCount())
	for i := range f.histLag {
		f.histLag[i] = obs.Default.Histogram("diggsim_repl_lag_seconds",
			fmt.Sprintf("shard=%q", fmt.Sprint(i)),
			"Replication lag observed at each heartbeat.")
	}
	for i := range f.shards {
		f.shards[i].applied.Store(target.AppliedLSN(i))
	}
	return f
}

// Locker exposes the store lock for the serving layer, mirroring
// live.Service.Locker.
func (f *Follower) Locker() *sync.RWMutex { return &f.mu }

// SetAfterApply registers a hook invoked after every locked apply,
// once the lock is released — the serving layer republishes its read
// snapshot through it. Call before Start.
func (f *Follower) SetAfterApply(fn func()) { f.afterApply = fn }

// ReadOnly reports whether writes should be fenced (true until
// Promote succeeds).
func (f *Follower) ReadOnly() bool { return f.readOnly.Load() }

// Err returns the fatal replication error, if any. ErrSnapshotGone
// and ErrDiverged mean the data directory must be wiped and
// re-bootstrapped.
func (f *Follower) Err() error {
	f.fatalMu.Lock()
	defer f.fatalMu.Unlock()
	return f.fatal
}

// Start launches one tailer per shard. Call at most once.
func (f *Follower) Start() {
	f.ctx, f.cancel = context.WithCancel(context.Background())
	for i := range f.shards {
		f.wg.Add(1)
		go f.tailLoop(f.ctx, i)
	}
}

// Stop halts the tailers and waits for them. The follower keeps
// serving reads from its last applied state.
func (f *Follower) Stop() {
	if f.cancel != nil {
		f.cancel()
	}
	f.wg.Wait()
}

// Promote stops the tailers, converts the target into a writable
// primary, and lifts the write fence. The caller (election, operator)
// has decided this node wins; Promote does not check peers.
func (f *Follower) Promote() error {
	f.Stop()
	f.mu.Lock()
	err := f.target.Promote()
	f.mu.Unlock()
	if err != nil {
		return err
	}
	f.readOnly.Store(false)
	if f.afterApply != nil {
		f.afterApply()
	}
	f.writeState(time.Now())
	return nil
}

// Staleness is how far behind the primary this follower may be: the
// age of the oldest shard's last heartbeat. The source ends every burst
// of records with a heartbeat, so under writes staleness is the age of
// the last burst; on an idle, connected stream it rises to the source's
// heartbeat interval between scheduled beats. Returns a large value if
// a shard has never heard from the primary.
func (f *Follower) Staleness() time.Duration {
	now := time.Now().UnixNano()
	var worst int64
	for i := range f.shards {
		ship := f.shards[i].lastShip.Load()
		if ship == 0 {
			return time.Duration(1<<62 - 1)
		}
		if age := now - ship; age > worst {
			worst = age
		}
	}
	return time.Duration(worst)
}

// ShardStatuses reports every shard's replication position.
func (f *Follower) ShardStatuses() []ShardStatus {
	now := time.Now().UnixNano()
	out := make([]ShardStatus, len(f.shards))
	for i := range f.shards {
		fs := &f.shards[i]
		st := ShardStatus{
			Shard:      i,
			AppliedLSN: fs.applied.Load(),
			ShippedLSN: fs.shipped.Load(),
		}
		if ship := fs.lastShip.Load(); ship > 0 {
			st.LagSeconds = float64(now-ship) / 1e9
		} else {
			st.LagSeconds = -1
		}
		if c := fs.lastContact.Load(); c > 0 {
			st.LastContact = float64(now-c) / 1e9
		} else {
			st.LastContact = -1
		}
		if id := fs.commitTrace.Load(); id != 0 {
			st.CommitTraceID = fmt.Sprintf("%016x", id)
		}
		out[i] = st
	}
	return out
}

// Primary returns the upstream label from Options.
func (f *Follower) Primary() string { return f.opts.Primary }

func (f *Follower) setFatal(err error) {
	f.fatalMu.Lock()
	if f.fatal == nil {
		f.fatal = err
	}
	f.fatalMu.Unlock()
	if f.cancel != nil {
		f.cancel() // one shard's fatal grounds the whole node
	}
}

// errApply marks a replicated batch that failed to apply — fatal,
// since retrying the same bytes cannot succeed.
var errApply = errors.New("repl: replicated batch failed to apply")

func fatalStream(err error) bool {
	return errors.Is(err, ErrSnapshotGone) || errors.Is(err, ErrDiverged) || errors.Is(err, errApply)
}

func (f *Follower) tailLoop(ctx context.Context, shard int) {
	defer f.wg.Done()
	backoff := f.opts.BackoffMin
	for ctx.Err() == nil {
		from := f.target.AppliedLSN(shard)
		rc, err := f.tr.Tail(ctx, shard, from)
		if err != nil {
			if fatalStream(err) {
				f.setFatal(err)
				return
			}
			if ctx.Err() != nil {
				return
			}
			f.ctrReconnects.Add(1)
			backoff = f.sleepBackoff(ctx, backoff)
			continue
		}
		applied, err := f.consume(ctx, shard, rc)
		rc.Close()
		if fatalStream(err) {
			f.setFatal(err)
			return
		}
		if ctx.Err() != nil {
			return
		}
		if applied > 0 {
			backoff = f.opts.BackoffMin
		}
		f.ctrReconnects.Add(1)
		backoff = f.sleepBackoff(ctx, backoff)
	}
}

// sleepBackoff sleeps a jittered backoff (half fixed, half random) and
// returns the next, doubled backoff capped at BackoffMax.
func (f *Follower) sleepBackoff(ctx context.Context, d time.Duration) time.Duration {
	wait := d/2 + rand.N(d/2+1)
	select {
	case <-ctx.Done():
	case <-time.After(wait):
	}
	if d *= 2; d > f.opts.BackoffMax {
		d = f.opts.BackoffMax
	}
	return d
}

// consume drains one stream: dedup by LSN, batch contiguous records,
// apply under the write lock, track heartbeats. Returns how many
// records it applied and why the stream ended.
func (f *Follower) consume(ctx context.Context, shard int, rc io.Reader) (int, error) {
	fs := &f.shards[shard]
	fr := NewFrameReader(rc)
	next := f.target.AppliedLSN(shard)
	batchStart := next
	var batch []wal.Entry
	// arena holds the batched records' payloads (the frame reader reuses
	// its buffer) and is reset by every flush: nothing keeps a payload
	// once ApplyReplicated returns — the WAL copies the bytes and the
	// record decoders copy what they keep.
	var arena []byte
	total := 0

	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		f.mu.Lock()
		err := f.target.ApplyReplicated(shard, batchStart, batch)
		if err == nil {
			f.target.Absorb()
		}
		f.mu.Unlock()
		if err != nil {
			return fmt.Errorf("%w: %w", errApply, err)
		}
		fs.applied.Store(next)
		f.ctrApplied.Add(uint64(len(batch)))
		total += len(batch)
		if f.afterApply != nil {
			f.afterApply()
		}
		batch = batch[:0]
		arena = arena[:0]
		batchStart = next
		return nil
	}

	for ctx.Err() == nil {
		frame, err := fr.Next()
		if err != nil {
			// Clean EOF, torn frame, corrupt frame, dead connection:
			// apply what we have and reconnect from the applied LSN.
			if ferr := flush(); ferr != nil {
				return total, ferr
			}
			return total, err
		}
		fs.lastContact.Store(time.Now().UnixNano())
		switch frame.Kind {
		case FrameRecord:
			if frame.LSN < next {
				continue // duplicate of an applied or batched record
			}
			if frame.LSN > next {
				// A dropped frame left a gap; the batch before it is
				// still good. Reconnect to re-request the gap.
				if ferr := flush(); ferr != nil {
					return total, ferr
				}
				return total, fmt.Errorf("repl: stream gap: want lsn %d, got %d", next, frame.LSN)
			}
			start := len(arena)
			arena = append(arena, frame.Payload...)
			batch = append(batch, wal.Entry{Type: frame.RecType, Payload: arena[start:len(arena):len(arena)]})
			next++
			if len(batch) >= f.opts.BatchMax {
				if err := flush(); err != nil {
					return total, err
				}
			}
		case FrameHeartbeat:
			if err := flush(); err != nil {
				return total, err
			}
			fs.shipped.Store(frame.Head)
			fs.lastShip.Store(frame.ShipUnixNano)
			now := time.Now()
			if lag := now.UnixNano() - frame.ShipUnixNano; lag > 0 {
				f.histLag[shard].Observe(time.Duration(lag))
			} else {
				f.histLag[shard].Observe(0)
			}
			// Commit→visible freshness: the flush above guarantees that
			// everything this stream delivered is applied and (through
			// afterApply) republished, so once our applied LSN covers
			// the stamped commit, that write is visible here. Observe
			// each primary commit once, at the first heartbeat that
			// confirms it.
			if frame.CommitLSN > 0 && frame.CommitLSN <= fs.applied.Load() &&
				frame.CommitLSN > fs.commitSeen.Load() {
				fs.commitSeen.Store(frame.CommitLSN)
				fs.commitTrace.Store(frame.TraceID)
				if d := now.UnixNano() - frame.CommitUnixNano; d > 0 {
					histFreshFollower.Observe(time.Duration(d))
				} else {
					histFreshFollower.Observe(0)
				}
			}
			f.maybeWriteState(now)
		case FrameError:
			if ferr := flush(); ferr != nil {
				return total, ferr
			}
			switch frame.Code {
			case ErrCodeGone:
				return total, fmt.Errorf("%w: %s", ErrSnapshotGone, frame.Msg)
			case ErrCodeCorrupt:
				// The source cannot re-serve these LSNs; only a fresh
				// bootstrap can get past them.
				return total, fmt.Errorf("%w: source log corrupt: %s", ErrSnapshotGone, frame.Msg)
			default:
				return total, fmt.Errorf("repl: source error: %s", frame.Msg)
			}
		}
	}
	if ferr := flush(); ferr != nil {
		return total, ferr
	}
	return total, ctx.Err()
}
