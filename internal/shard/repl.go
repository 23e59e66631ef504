package shard

// repl.go is the store's replication surface. A follower receives one
// independent WAL stream per shard; each stream applies into its
// shard's durable store (identical records at identical LSNs — see
// durable's repl.go), and AbsorbReplicated then folds the advance into
// the merged read views under the same write lock. The fold is the one
// every write and every recovery uses (fold.go): the merged views
// extend only to the dense prefix, so within a catch-up window the
// follower's views are simply a shorter prefix, and each shard's
// promotions are released in that shard's own order. A one-shard
// follower therefore orders promotions exactly as its primary does.

import (
	"fmt"

	"diggsim/internal/durable"
	"diggsim/internal/wal"
)

// DurableShard returns shard i's durable store (nil for an in-memory
// store). The replication source serves each shard's WAL directory and
// head position through it.
func (s *Store) DurableShard(i int) *durable.Store { return s.stores[i] }

// ShardAppliedLSN returns shard i's WAL position — where its
// replication stream resumes from. Zero for an in-memory store.
func (s *Store) ShardAppliedLSN(i int) uint64 {
	if s.stores[i] == nil {
		return 0
	}
	return s.stores[i].AppliedLSN()
}

// OpenFollower recovers a store for replication catch-up. It differs
// from Open in one decision: there is no cut. On a crashed primary the
// stories past the merged dense prefix belong to unacknowledged writes;
// on a follower they belong to acknowledged primary writes whose
// sibling-shard records simply have not streamed in yet, and trimming
// them would checkpoint them away at LSNs the stream will never resend.
// The fold stops at the dense prefix; AbsorbReplicated extends it as
// the streams catch up.
func OpenFollower(dir string, opts durable.Options) (*Store, error) {
	s, err := openShards(dir, opts)
	if err != nil {
		return nil, err
	}
	s.fold()
	s.rec = RecoveryInfo{Shards: recoveries(s.stores), Generation: s.Generation()}
	return s, nil
}

// ApplyReplicated appends and applies a contiguous run of replicated
// records to one shard (see durable.Store.ApplyReplicated). It touches
// no merged view — call AbsorbReplicated afterwards, under the same
// write lock hold, to fold the advance into the read surface. Requires
// the caller's write synchronization.
func (s *Store) ApplyReplicated(shard int, lsn uint64, entries []wal.Entry) error {
	if shard < 0 || shard >= s.n {
		return fmt.Errorf("shard: no shard %d (have %d)", shard, s.n)
	}
	ds := s.stores[shard]
	if ds == nil {
		return fmt.Errorf("shard: shard %d is not durable; cannot apply a replication stream", shard)
	}
	if err := ds.ApplyReplicated(lsn, entries); err != nil {
		return err
	}
	s.stats[shard].writes.Add(uint64(len(entries)))
	return nil
}

// AbsorbReplicated folds replicated per-shard advances into the merged
// read views (see fold). Requires the caller's write synchronization.
func (s *Store) AbsorbReplicated() { s.fold() }

// PromoteToPrimary converts a follower store into a writable primary:
// the cut Open makes, then the fold. Shard tails beyond the merged
// dense prefix — records whose sibling-shard companions never arrived
// before the old primary died — are trimmed and checkpointed away,
// exactly as crash recovery treats unacknowledged bursts; the returned
// count reports how many stories that dropped. The caller must have
// stopped the replication tailers first and must hold the write lock.
func (s *Store) PromoteToPrimary() (trimmed int, err error) {
	if trimmed, err = s.cut(); err == nil {
		s.fold()
	}
	return trimmed, err
}
