// Package shard scales the write path across cores: a shard.Store
// implements digg.Store by partitioning stories over N shard-local
// *digg.Platform instances (optionally each logged by its own
// durable.Store with a private WAL directory), so concurrent write
// bursts never contend on one lock or one fsync. It is also the only
// durable store shape: an unsharded durable node is a one-shard Store
// whose shard lives at the root of its data directory.
//
// Routing is a fixed consistent hash of the story ID: shard(id) =
// id % N. The hash is collision-free and dense because the shards
// allocate IDs from interleaved sequences (digg.NewShardPlatform —
// shard i's k-th story carries global ID i + k*N), which keeps the
// merged story sequence identical to what a single platform would
// have produced: global IDs are assigned 0, 1, 2, ... in submission
// order no matter how many shards serve them.
//
// Reads merge by scatter-gather. The store maintains a merged
// append-only story slice (index == global ID) and a merged
// promotion-order slice, so every digg.Store query — front page,
// upcoming, cursors over stories — behaves exactly as on a single
// platform, and the serving layer's pre-rendered snapshots work
// unchanged. Both views grow through one fold (fold.go), whichever
// path changed the shards. The reputation ranking is a digg.Ranking
// over the merged promotion order, so it orders users exactly as a
// single platform would.
//
// The composite generation is the sum of the per-shard generations:
// every mutation increments exactly one shard's generation, so the
// sum is strictly monotonic and equal sums imply identical state
// within a process lifetime. The per-shard generation vector
// (ShardGenerations) additionally stamps read views and cursors so
// pagination guarantees survive sharding.
//
// Concurrency contract: identical to digg.Platform — single-writer
// under the caller's external synchronization. The concurrency inside
// DiggMany/SubmitMany/EndBatch is internal: it partitions work across
// shards and joins before returning.
package shard

import (
	"fmt"
	"sync/atomic"

	"diggsim/internal/digg"
	"diggsim/internal/durable"
	"diggsim/internal/graph"
	"diggsim/internal/obs"
)

// histMerge times the serial tail of a bulk apply — promotion merging
// and story-sequence extension — the part that cannot overlap across
// shards.
var histMerge = obs.Default.Histogram("diggsim_shard_merge_seconds", "",
	"Scatter-gather merge latency after a bulk apply (promotion merge, story-sequence extension).")

// shardWriter is what a write routes to on one shard: the shard's
// *digg.Platform when in memory, or the *durable.Store that logs each
// command before applying it to that platform.
type shardWriter interface {
	Submit(u digg.UserID, title string, interest float64, t digg.Minutes) (*digg.Story, error)
	InstallStory(st *digg.Story) error
	Digg(id digg.StoryID, u digg.UserID, t digg.Minutes) (digg.DiggResult, error)
	CompactStory(id digg.StoryID) error
	digg.Batcher
}

// Store is an N-way sharded digg.Store.
type Store struct {
	n      int
	graph  *graph.Graph
	shards []shardWriter    // the per-shard writers writes route to
	plats  []*digg.Platform // the shards' platforms, which every read uses
	stores []*durable.Store // per-shard durable stores, nil when in-memory

	// stories is the merged story sequence, index == global story ID.
	// Like Platform.Stories it is shared and append-only.
	stories []*digg.Story
	// promoted is the merged promotion order, append-only. FromPlatform
	// copies its source's order; every later promotion enters through
	// fold. folded[i] counts shard i's platform promotions it holds.
	promoted []digg.StoryID
	folded   []int

	// rank is the reputation ranking over the merged promotion order.
	rank *digg.Ranking

	// stats holds per-shard write/replay counters for /metrics. The
	// write counters are atomics because DiggMany/SubmitMany increment
	// them from per-shard goroutines.
	stats []shardCounters
	// applyHist times each shard's bulk sub-batch apply (commands plus
	// the shard's WAL group commit), labeled shard="i".
	applyHist []*obs.Histogram

	rec RecoveryInfo
	dir string
}

type shardCounters struct {
	writes   atomic.Uint64 // commands applied since process start
	replayed uint64        // WAL records replayed at Open (immutable)
}

// Stat is a point-in-time snapshot of one shard's counters.
type Stat struct {
	Shard      int
	Stories    int
	Generation uint64
	// Writes counts commands applied to the shard since process start.
	Writes uint64
	// Replayed counts WAL records replayed when the shard was opened.
	Replayed uint64
}

var _ digg.Store = (*Store)(nil)

// New creates an empty in-memory sharded store over the given social
// graph with n shards (n >= 1) and the given promotion policy (nil
// means the classic default).
func New(g *graph.Graph, policy digg.PromotionPolicy, n int) *Store {
	if n < 1 {
		panic(fmt.Sprintf("shard: invalid shard count %d", n))
	}
	s := &Store{
		n:         n,
		graph:     g,
		shards:    make([]shardWriter, n),
		plats:     make([]*digg.Platform, n),
		stores:    make([]*durable.Store, n),
		rank:      digg.NewRanking(g),
		stats:     make([]shardCounters, n),
		applyHist: make([]*obs.Histogram, n),
		folded:    make([]int, n),
	}
	for i := 0; i < n; i++ {
		s.applyHist[i] = obs.Default.Histogram("diggsim_shard_apply_seconds",
			`shard="`+fmt.Sprint(i)+`"`,
			"Per-shard bulk sub-batch apply latency, including the shard's WAL group commit.")
	}
	for i := 0; i < n; i++ {
		p := digg.NewShardPlatform(g, policy, digg.StoryID(i), digg.StoryID(n))
		s.plats[i] = p
		s.shards[i] = p
	}
	return s
}

// FromPlatform splits an existing single platform (typically a
// pregenerated corpus) into an n-way sharded store. Stories are
// re-installed into their owning shards in submission order, so they
// arrive in the compacted state exactly as corpus installation leaves
// them on a single platform; the merged promotion order is copied
// from the source so serving output is unchanged by the split.
func FromPlatform(src *digg.Platform, n int) (*Store, error) {
	if off, step := src.IDScheme(); off != 0 || step != 1 {
		return nil, fmt.Errorf("shard: FromPlatform needs an unsharded source (scheme %d/%d)", off, step)
	}
	s := New(src.SocialGraph(), src.Policy, n)
	for _, st := range src.Stories() {
		sh := int(st.ID) % n
		if err := s.plats[sh].InstallStory(st); err != nil {
			return nil, fmt.Errorf("shard: splitting story %d: %w", st.ID, err)
		}
		s.stories = append(s.stories, st)
		s.stats[sh].writes.Add(1)
	}
	// Preserve the source's promotion order rather than the shards'
	// install order so front-page output is identical post-split.
	s.promoted = append(s.promoted, src.PromotedIDs()...)
	for _, id := range s.promoted {
		s.rank.Promote(s.stories[id].Submitter)
	}
	for i, p := range s.plats {
		s.folded[i] = len(p.PromotedIDs())
	}
	return s, nil
}

// ShardCount returns the number of shards.
func (s *Store) ShardCount() int { return s.n }

// ShardGenerations appends the per-shard generation vector to dst.
func (s *Store) ShardGenerations(dst []uint64) []uint64 {
	for _, p := range s.plats {
		dst = append(dst, p.Generation())
	}
	return dst
}

// Stats snapshots the per-shard counters for metrics exposition.
func (s *Store) Stats() []Stat {
	out := make([]Stat, s.n)
	for i := range out {
		out[i] = Stat{
			Shard:      i,
			Stories:    s.plats[i].NumStories(),
			Generation: s.plats[i].Generation(),
			Writes:     s.stats[i].writes.Load(),
			Replayed:   s.stats[i].replayed,
		}
	}
	return out
}

// Recovery reports what Open did, shard by shard.
func (s *Store) Recovery() RecoveryInfo { return s.rec }

// Dir returns the data directory ("" for an in-memory store).
func (s *Store) Dir() string { return s.dir }

// shardOf returns the shard owning global story ID id (id >= 0).
func (s *Store) shardOf(id digg.StoryID) int { return int(id) % s.n }

// --- queries ---

// Generation returns the composite generation: the sum of the shard
// generations. Every mutation increments exactly one shard, so the
// sum is strictly monotonic and equal sums imply identical state.
func (s *Store) Generation() uint64 {
	var g uint64
	for _, p := range s.plats {
		g += p.Generation()
	}
	return g
}

// NumStories returns the merged story count.
func (s *Store) NumStories() int { return len(s.stories) }

// StoryVersion routes to the owning shard.
func (s *Store) StoryVersion(id digg.StoryID) uint32 {
	if id < 0 || int(id) >= len(s.stories) {
		return 0
	}
	return s.plats[s.shardOf(id)].StoryVersion(id)
}

// Story returns the story with the given global ID.
func (s *Store) Story(id digg.StoryID) (*digg.Story, error) {
	if id < 0 || int(id) >= len(s.stories) {
		return nil, fmt.Errorf("%w %d", digg.ErrNoStory, id)
	}
	return s.stories[id], nil
}

// Stories returns the merged story sequence in global submission
// order. The slice is shared and append-only.
func (s *Store) Stories() []*digg.Story { return s.stories }

// FrontPage returns promoted stories from the merged promotion order,
// most recently promoted first.
func (s *Store) FrontPage(limit int) []*digg.Story {
	var out []*digg.Story
	for i := len(s.promoted) - 1; i >= 0; i-- {
		out = append(out, s.stories[s.promoted[i]])
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// PromotedCount returns the merged front-page story count.
func (s *Store) PromotedCount() int { return len(s.promoted) }

// PromotedIDs returns the merged promotion order, oldest first. The
// slice is shared and append-only, as the cursor contract requires.
func (s *Store) PromotedIDs() []digg.StoryID { return s.promoted }

// Upcoming scans the merged sequence newest-first, exactly as a
// single platform would.
func (s *Store) Upcoming(now digg.Minutes, limit int) []*digg.Story {
	var out []*digg.Story
	for i := len(s.stories) - 1; i >= 0; i-- {
		st := s.stories[i]
		if st.Promoted || st.SubmittedAt > now {
			continue
		}
		out = append(out, st)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// SocialGraph returns the shared immutable social graph.
func (s *Store) SocialGraph() *graph.Graph { return s.graph }

// TopUsers returns up to k users from the merged reputation ranking.
func (s *Store) TopUsers(k int) []digg.UserID { return s.rank.TopUsers(k) }

// Ranks returns the shared, immutable merged user -> rank map.
func (s *Store) Ranks() map[digg.UserID]int { return s.rank.Ranks() }

// UserRank returns u's merged 1-based rank (0 if unranked).
func (s *Store) UserRank(u digg.UserID) int { return s.rank.UserRank(u) }

// --- commands ---

// Submit routes the next global story ID's submission to its shard.
func (s *Store) Submit(u digg.UserID, title string, interest float64, t digg.Minutes) (*digg.Story, error) {
	id := digg.StoryID(len(s.stories))
	sh := s.shardOf(id)
	st, err := s.shards[sh].Submit(u, title, interest, t)
	if err != nil {
		return nil, err
	}
	if st.ID != id {
		// Unreachable while the merged slice mirrors the shards; a
		// mismatch means the store and its shards diverged.
		panic(fmt.Sprintf("shard: shard %d assigned story %d, merged sequence expected %d", sh, st.ID, id))
	}
	s.stats[sh].writes.Add(1)
	s.fold()
	return st, nil
}

// InstallStory adopts a fully simulated story as the next global
// story, routing it to the owning shard.
func (s *Store) InstallStory(st *digg.Story) error {
	if want := digg.StoryID(len(s.stories)); st.ID != want {
		return fmt.Errorf("digg: InstallStory out of order: story %d, next id %d", st.ID, want)
	}
	sh := s.shardOf(st.ID)
	if err := s.shards[sh].InstallStory(st); err != nil {
		return err
	}
	s.stats[sh].writes.Add(1)
	s.fold()
	return nil
}

// Digg routes a vote to the story's shard and folds any resulting
// promotion into the merged promotion order.
func (s *Store) Digg(id digg.StoryID, u digg.UserID, t digg.Minutes) (digg.DiggResult, error) {
	if id < 0 || int(id) >= len(s.stories) {
		return digg.DiggResult{}, fmt.Errorf("%w %d", digg.ErrNoStory, id)
	}
	sh := s.shardOf(id)
	res, err := s.shards[sh].Digg(id, u, t)
	if err != nil {
		return res, err
	}
	s.stats[sh].writes.Add(1)
	if res.Promoted {
		s.fold()
	}
	return res, nil
}

// CompactStory routes to the owning shard.
func (s *Store) CompactStory(id digg.StoryID) error {
	if id < 0 || int(id) >= len(s.stories) {
		return fmt.Errorf("%w %d", digg.ErrNoStory, id)
	}
	sh := s.shardOf(id)
	if err := s.shards[sh].CompactStory(id); err != nil {
		return err
	}
	s.stats[sh].writes.Add(1)
	return nil
}
