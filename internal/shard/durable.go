package shard

// durable.go gives each shard its own write-ahead log: a sharded data
// directory is N independent durable.Store directories named
// shard-0000 ... shard-NNNN, each fully self-describing (its own
// graph file, checkpoints and WAL; the checkpointed platform state
// carries the shard's ID scheme). Recovery opens every shard
// independently, then re-densifies the merged global ID sequence: if
// a crash left one shard's WAL durable past another's for the same
// unacknowledged burst, the trailing stories beyond the first hole in
// the interleaved sequence are trimmed (they were never acknowledged
// — a batch acks only after every shard's fsync) and the trimming
// shards are checkpointed immediately so their WALs cannot resurrect
// the trimmed records.

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"

	"diggsim/internal/digg"
	"diggsim/internal/durable"
)

// shardDirName returns the subdirectory name for shard i.
func shardDirName(i int) string { return fmt.Sprintf("shard-%04d", i) }

var shardDirRe = regexp.MustCompile(`^shard-(\d{4})$`)

// ShardDirs lists the shard subdirectories of a sharded data
// directory in shard order, validating that they are exactly
// shard-0000 .. shard-(n-1) with no gaps.
func ShardDirs(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if e.IsDir() && shardDirRe.MatchString(e.Name()) {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("shard: %s contains no shard-NNNN directories", dir)
	}
	sort.Strings(names)
	out := make([]string, len(names))
	for i, name := range names {
		if name != shardDirName(i) {
			return nil, fmt.Errorf("shard: %s: found %s, want %s (gap in shard sequence)", dir, name, shardDirName(i))
		}
		out[i] = filepath.Join(dir, name)
	}
	return out, nil
}

// Exists reports whether dir contains a sharded durable store (at
// least its first shard directory).
func Exists(dir string) bool {
	return durable.Exists(filepath.Join(dir, shardDirName(0)))
}

// RecoveryInfo describes what Open did, shard by shard.
type RecoveryInfo struct {
	// Shards holds each shard's own recovery report, in shard order.
	Shards []durable.RecoveryInfo
	// Trimmed counts stories dropped to re-densify the merged global
	// ID sequence; they belonged to writes that were never
	// acknowledged (zero after any clean shutdown).
	Trimmed int
	// Generation is the recovered composite generation.
	Generation uint64
}

// Create initializes dir as a sharded data directory around an
// existing unsharded platform (typically a pregenerated corpus),
// splitting it across n shards and creating one durable store per
// shard. The same genesis blob is recorded in every shard.
func Create(dir string, src *digg.Platform, n int, genesis []byte, opts durable.Options) (*Store, error) {
	s, err := FromPlatform(src, n)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		ds, err := durable.Create(filepath.Join(dir, shardDirName(i)), s.plats[i], genesis, opts)
		if err != nil {
			closeShards(s.stores[:i])
			return nil, fmt.Errorf("shard: creating shard %d: %w", i, err)
		}
		s.stores[i] = ds
		s.shards[i] = ds
	}
	s.dir = dir
	s.rec = RecoveryInfo{Shards: recoveries(s.stores), Generation: s.Generation()}
	return s, nil
}

// Open recovers a sharded store from dir: every shard directory is
// opened independently (newest checkpoint + WAL tail replay), the
// merged story sequence is rebuilt by interleaving the shards' ID
// sequences, trailing unacknowledged stories past the first hole are
// trimmed, and the merged promotion order is reconstructed by a
// deterministic k-way merge on (PromotedAt, ID) that preserves each
// shard's internal order.
func Open(dir string, opts durable.Options) (*Store, error) {
	s, err := openShards(dir, opts)
	if err != nil {
		return nil, err
	}
	n := s.n

	// Re-densify: the first missing global ID across all shards bounds
	// the acknowledged prefix; anything a shard holds beyond it came
	// from a burst that never fully fsynced and was never acked.
	trimmed := 0
	prefix := s.densePrefix()
	for i := 0; i < n; i++ {
		keep := ownedBelow(prefix, i, n)
		if dropped := s.plats[i].TrimStories(keep); dropped > 0 {
			trimmed += dropped
			// Checkpoint immediately so the shard's WAL (which still
			// holds the trimmed records) can never replay them.
			if err := s.stores[i].Checkpoint(); err != nil {
				closeShards(s.stores)
				return nil, fmt.Errorf("shard: checkpointing shard %d after trim: %w", i, err)
			}
		}
	}

	// Rebuild the merged story sequence by interleaving.
	s.stories = make([]*digg.Story, prefix)
	for k := 0; k < prefix; k++ {
		s.stories[k] = s.plats[k%n].Stories()[k/n]
	}
	// Rebuild the merged promotion order by k-way merge.
	s.promoted = s.mergeShardPromotions()
	for _, id := range s.promoted {
		s.promotedBySubmitter[s.stories[id].Submitter]++
	}
	s.rec = RecoveryInfo{Shards: recoveries(s.stores), Trimmed: trimmed, Generation: s.Generation()}
	return s, nil
}

// openShards opens every shard directory under dir, sharing shard 0's
// decoded graph with the rest and checking each shard's ID scheme, and
// adopts the stores into a new Store. The merged story and promotion
// views are left empty for the caller, whose rule for shard tails past
// the dense prefix differs (Open trims them, OpenFollower waits).
func openShards(dir string, opts durable.Options) (*Store, error) {
	dirs, err := ShardDirs(dir)
	if err != nil {
		return nil, err
	}
	n := len(dirs)
	stores := make([]*durable.Store, n)
	for i, d := range dirs {
		ds, err := durable.Open(d, opts)
		if err != nil {
			closeShards(stores[:i])
			return nil, fmt.Errorf("shard: opening shard %d: %w", i, err)
		}
		stores[i] = ds
		if i == 0 {
			// Every shard persists the same graph; decode it once and
			// share the instance.
			opts.Graph = ds.SocialGraph()
		}
		if off, step := ds.Unwrap().IDScheme(); off != digg.StoryID(i) || step != digg.StoryID(n) {
			closeShards(stores[:i+1])
			return nil, fmt.Errorf("shard: shard %d recovered with ID scheme %d/%d, want %d/%d", i, off, step, i, n)
		}
	}
	s := New(stores[0].SocialGraph(), opts.Policy, n)
	for i, ds := range stores {
		s.stores[i] = ds
		s.shards[i] = ds
		s.plats[i] = ds.Unwrap()
		s.stats[i].replayed = uint64(ds.Recovery().Replayed)
	}
	s.dir = dir
	return s, nil
}

// densePrefix returns the length of the dense merged prefix: the
// smallest global ID no shard holds.
func (s *Store) densePrefix() int {
	prefix := -1
	for i, p := range s.plats {
		// Shard i's first missing global ID is i + count*n.
		miss := i + p.NumStories()*s.n
		if prefix < 0 || miss < prefix {
			prefix = miss
		}
	}
	return prefix
}

// ownedBelow returns how many global IDs below bound shard i owns
// under an n-way interleave.
func ownedBelow(bound, i, n int) int {
	if bound <= i {
		return 0
	}
	return (bound - i + n - 1) / n
}

// mergeShardPromotions merges the shards' promotion orders into one
// list sorted by (PromotedAt, ID), preserving each shard's internal
// order (which is already non-decreasing in its own apply sequence
// under monotone simulation time). The merge is deterministic, so
// repeated recoveries of the same shard states produce the same
// front page.
func (s *Store) mergeShardPromotions() []digg.StoryID {
	type head struct {
		ids []digg.StoryID
		pos int
	}
	heads := make([]head, s.n)
	total := 0
	for i, p := range s.plats {
		heads[i].ids = p.PromotedIDs()
		total += len(heads[i].ids)
	}
	merged := make([]digg.StoryID, 0, total)
	for len(merged) < total {
		best := -1
		var bestID digg.StoryID
		var bestAt digg.Minutes
		for i := range heads {
			h := &heads[i]
			if h.pos >= len(h.ids) {
				continue
			}
			id := h.ids[h.pos]
			at := s.stories[id].PromotedAt
			if best < 0 || at < bestAt || (at == bestAt && id < bestID) {
				best, bestID, bestAt = i, id, at
			}
		}
		merged = append(merged, bestID)
		heads[best].pos++
	}
	return merged
}

func recoveries(stores []*durable.Store) []durable.RecoveryInfo {
	out := make([]durable.RecoveryInfo, len(stores))
	for i, ds := range stores {
		out[i] = ds.Recovery()
	}
	return out
}

func closeShards(stores []*durable.Store) {
	for _, ds := range stores {
		if ds != nil {
			ds.Close()
		}
	}
}

// Genesis returns the store's genesis record, or nil for an in-memory
// store. Create writes the same blob to every shard; shard 0's copy is
// returned.
func (s *Store) Genesis() []byte {
	if s.stores[0] == nil {
		return nil
	}
	return s.stores[0].Genesis()
}

// Checkpoint checkpoints every durable shard.
func (s *Store) Checkpoint() error {
	for i, ds := range s.stores {
		if ds == nil {
			continue
		}
		if err := ds.Checkpoint(); err != nil {
			return fmt.Errorf("shard: checkpointing shard %d: %w", i, err)
		}
	}
	return nil
}

// Sync forces every durable shard's WAL to disk.
func (s *Store) Sync() error {
	for i, ds := range s.stores {
		if ds == nil {
			continue
		}
		if err := ds.Sync(); err != nil {
			return fmt.Errorf("shard: syncing shard %d: %w", i, err)
		}
	}
	return nil
}

// Close closes every durable shard, returning the first error.
func (s *Store) Close() error {
	var first error
	for _, ds := range s.stores {
		if ds == nil {
			continue
		}
		if err := ds.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
