package shard

// durable.go gives each shard its own write-ahead log: a sharded data
// directory is N independent durable.Store directories named
// shard-0000 ... shard-NNNN, each fully self-describing (its own
// graph file, checkpoints and WAL; the checkpointed platform state
// carries the shard's ID scheme). A one-shard store keeps its shard at
// the root of the data directory instead, which is the layout of a
// single durable.Store, so such a directory opens as a one-shard
// store. Recovery opens every shard independently, cuts every shard
// back to the dense prefix of the merged global ID sequence (see cut)
// and folds the shards into the merged views (see fold).

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

// ShardDirPath returns shard i's data directory under the root dir of
// an n-shard store: the root itself when n is 1.
func ShardDirPath(dir string, i, n int) string {
	if n == 1 {
		return dir
	}
	return filepath.Join(dir, shardDirName(i))
}

// ShardDirs lists the shard directories of a data directory in shard
// order: the root alone when it holds a store itself, otherwise its
// shard-0000 .. shard-(n-1) subdirectories, which must have no gaps. A
// directory holding both a root store and shard subdirectories is
// refused rather than guessed at.
func ShardDirs(dir string) ([]string, error) {
	names, err := shardSubdirs(dir)
	if err != nil {
		return nil, err
	}
	if durable.Exists(dir) {
		if len(names) > 0 {
			return nil, fmt.Errorf("shard: %s holds both a root store and %s", dir, names[0])
		}
		return []string{dir}, nil
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("shard: %s contains no store", dir)
	}
	out := make([]string, len(names))
	for i, name := range names {
		if name != shardDirName(i) {
			return nil, fmt.Errorf("shard: %s: found %s, want %s (gap in shard sequence)", dir, name, shardDirName(i))
		}
		out[i] = filepath.Join(dir, name)
	}
	return out, nil
}

// Exists reports whether dir holds a store anywhere Open looks: at its
// root, or in any shard-NNNN subdirectory. A directory whose layout
// Open refuses (a gap in the shard sequence, a root store beside shard
// directories) exists too, so creating only where Exists is false never
// writes a store beside one.
func Exists(dir string) bool {
	if durable.Exists(dir) {
		return true
	}
	names, err := shardSubdirs(dir)
	if err != nil {
		return false
	}
	for _, name := range names {
		if durable.Exists(filepath.Join(dir, name)) {
			return true
		}
	}
	return false
}

// shardSubdirs returns the names of dir's shard-NNNN subdirectories in
// shard order.
func shardSubdirs(dir string) ([]string, error) {
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
	sort.Strings(names)
	return names, nil
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

// Create initializes dir as a data directory around an existing
// unsharded platform (typically a pregenerated corpus), splitting it
// across n shards and creating one durable store per shard (at the
// root of dir when n is 1). The same genesis blob is recorded in every
// shard. A directory that already holds a store (see Exists) is
// refused, whatever its layout.
func Create(dir string, src *digg.Platform, n int, genesis []byte, opts durable.Options) (*Store, error) {
	if Exists(dir) {
		return nil, fmt.Errorf("shard: %s already holds a store (use Open)", dir)
	}
	s, err := FromPlatform(src, n)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		ds, err := durable.Create(ShardDirPath(dir, i, n), s.plats[i], genesis, opts)
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

// Open recovers a store from dir in three steps: every shard directory
// is opened independently (newest checkpoint + WAL tail replay), every
// shard is cut back to the dense prefix of the merged global ID
// sequence, and the shards are folded into the merged views. The cut
// comes first, so the fold releases every shard's promotions in full.
func Open(dir string, opts durable.Options) (*Store, error) {
	s, err := openShards(dir, opts)
	if err != nil {
		return nil, err
	}
	trimmed, err := s.cut()
	if err != nil {
		closeShards(s.stores)
		return nil, err
	}
	s.fold()
	s.rec = RecoveryInfo{Shards: recoveries(s.stores), Trimmed: trimmed, Generation: s.Generation()}
	return s, nil
}

// openShards opens every shard directory under dir, sharing shard 0's
// decoded graph with the rest and checking each shard's ID scheme, and
// adopts the stores into a new Store. The merged views are left empty
// for the caller to fold, after Open's cut or, on a follower, without
// one.
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
		p := ds.Unwrap()
		// Every shard persists the same graph; decode it once and share
		// the instance.
		opts.Graph = p.SocialGraph()
		if off, step := p.IDScheme(); off != digg.StoryID(i) || step != digg.StoryID(n) {
			closeShards(stores[:i+1])
			return nil, fmt.Errorf("shard: shard %d recovered with ID scheme %d/%d, want %d/%d", i, off, step, i, n)
		}
	}
	s := New(opts.Graph, opts.Policy, n)
	for i, ds := range stores {
		s.stores[i] = ds
		s.shards[i] = ds
		s.plats[i] = ds.Unwrap()
		s.stats[i].replayed = uint64(ds.Recovery().Replayed)
	}
	s.dir = dir
	return s, nil
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
