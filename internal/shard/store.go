// Package shard scales the write path across cores: a shard.Store
// implements digg.Store by partitioning stories over N shard-local
// *digg.Platform instances (optionally each wrapped in its own
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
// path changed the shards. The reputation ranking is recomputed from
// the merged promotion tally with the same ordering rules as
// digg.Platform.
//
// The composite generation is the sum of the per-shard generations:
// every mutation increments exactly one shard's generation, so the
// sum is strictly monotonic and equal sums imply identical state
// within a process lifetime. The per-shard generation vector
// (digg.Sharded) additionally stamps read views and cursors so
// pagination guarantees survive sharding.
//
// Concurrency contract: identical to digg.Platform — single-writer
// under the caller's external synchronization. The concurrency inside
// DiggMany/SubmitMany/EndBatch is internal: it partitions work across
// shards and joins before returning.
package shard

import (
	"fmt"
	"sort"
	"sync"
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

// Store is an N-way sharded digg.Store.
type Store struct {
	n      int
	graph  *graph.Graph
	shards []digg.Store     // the per-shard stores writes route to
	plats  []*digg.Platform // the shards' platforms (always non-nil)
	stores []*durable.Store // per-shard durable wrappers, nil when in-memory

	// stories is the merged story sequence, index == global story ID.
	// Like Platform.Stories it is shared and append-only.
	stories []*digg.Story
	// promoted is the merged promotion order, append-only. FromPlatform
	// copies its source's order; every later promotion enters through
	// fold. folded[i] counts shard i's platform promotions it holds.
	promoted []digg.StoryID
	folded   []int

	// Merged reputation state, maintained with the same rules and
	// locking discipline as digg.Platform's.
	promotedBySubmitter map[digg.UserID]int
	rankMu              sync.Mutex
	rankCache           map[digg.UserID]int
	rankedCache         []digg.UserID

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

// Store implements the full store seam including the sharded
// capabilities.
var (
	_ digg.Store      = (*Store)(nil)
	_ digg.Batcher    = (*Store)(nil)
	_ digg.BulkWriter = (*Store)(nil)
	_ digg.Sharded    = (*Store)(nil)
)

// New creates an empty in-memory sharded store over the given social
// graph with n shards (n >= 1) and the given promotion policy (nil
// means the classic default).
func New(g *graph.Graph, policy digg.PromotionPolicy, n int) *Store {
	if n < 1 {
		panic(fmt.Sprintf("shard: invalid shard count %d", n))
	}
	s := &Store{
		n:                   n,
		graph:               g,
		shards:              make([]digg.Store, n),
		plats:               make([]*digg.Platform, n),
		stores:              make([]*durable.Store, n),
		promotedBySubmitter: make(map[digg.UserID]int),
		stats:               make([]shardCounters, n),
		applyHist:           make([]*obs.Histogram, n),
		folded:              make([]int, n),
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
		s.promotedBySubmitter[s.stories[id].Submitter]++
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
	for _, sh := range s.shards {
		dst = append(dst, sh.Generation())
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
			Generation: s.shards[i].Generation(),
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
	for _, sh := range s.shards {
		g += sh.Generation()
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
	return s.shards[s.shardOf(id)].StoryVersion(id)
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

// rankedLocked computes the merged reputation ordering with the same
// rules as digg.Platform: promoted submissions desc, fan count desc,
// user ID asc. Callers hold rankMu.
func (s *Store) rankedLocked() []digg.UserID {
	if s.rankedCache != nil {
		return s.rankedCache
	}
	type entry struct {
		u        digg.UserID
		promoted int
	}
	entries := make([]entry, 0, len(s.promotedBySubmitter))
	for u, c := range s.promotedBySubmitter {
		entries = append(entries, entry{u, c})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].promoted != entries[j].promoted {
			return entries[i].promoted > entries[j].promoted
		}
		fi, fj := s.graph.InDegree(entries[i].u), s.graph.InDegree(entries[j].u)
		if fi != fj {
			return fi > fj
		}
		return entries[i].u < entries[j].u
	})
	ranked := make([]digg.UserID, len(entries))
	for i, e := range entries {
		ranked[i] = e.u
	}
	s.rankedCache = ranked
	return ranked
}

// TopUsers returns up to k users from the merged reputation ranking.
func (s *Store) TopUsers(k int) []digg.UserID {
	s.rankMu.Lock()
	ranked := s.rankedLocked()
	if k > len(ranked) {
		k = len(ranked)
	}
	if k < 0 {
		k = 0
	}
	out := make([]digg.UserID, k)
	copy(out, ranked[:k])
	s.rankMu.Unlock()
	return out
}

// Ranks returns the shared, immutable merged user -> rank map.
func (s *Store) Ranks() map[digg.UserID]int {
	s.rankMu.Lock()
	defer s.rankMu.Unlock()
	if s.rankCache == nil {
		ranked := s.rankedLocked()
		m := make(map[digg.UserID]int, len(ranked))
		for i, u := range ranked {
			m[u] = i + 1
		}
		s.rankCache = m
	}
	return s.rankCache
}

// UserRank returns u's merged 1-based rank (0 if unranked).
func (s *Store) UserRank(u digg.UserID) int {
	s.rankMu.Lock()
	defer s.rankMu.Unlock()
	if s.rankCache == nil {
		ranked := s.rankedLocked()
		m := make(map[digg.UserID]int, len(ranked))
		for i, t := range ranked {
			m[t] = i + 1
		}
		s.rankCache = m
	}
	return s.rankCache[u]
}

func (s *Store) invalidateRanks() {
	s.rankMu.Lock()
	s.rankCache = nil
	s.rankedCache = nil
	s.rankMu.Unlock()
}

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
