package shard

// repl.go is the sharded store's replication surface. A sharded
// follower receives one independent WAL stream per shard; each stream
// applies into its shard's durable store (identical records at
// identical LSNs — see durable's repl.go), and the merged read views
// are then re-folded by AbsorbReplicated under the same write lock.
//
// The folding problem is the same one the bulk write path and crash
// recovery already solve: per-shard state advances independently, but
// the merged story sequence must stay dense (index == global ID) and
// the merged promotion order append-only. The answer is also the same:
// the merged views extend only to the dense prefix (the first global
// ID no shard holds yet), and promotions are released in (PromotedAt,
// ID) order once their story enters the prefix — promotions of stories
// still beyond it park in a pending list. At quiescence the follower's
// promoted set and every story's bytes match the primary's; within a
// catch-up window the follower's views are simply a shorter prefix.

import (
	"fmt"
	"path/filepath"
	"sort"

	"diggsim/internal/digg"
	"diggsim/internal/durable"
	"diggsim/internal/wal"
)

// ShardDirPath returns shard i's data directory under a sharded
// store's root — the directory a replication bootstrap seeds before
// OpenFollower recovers the set.
func ShardDirPath(dir string, i int) string {
	return filepath.Join(dir, shardDirName(i))
}

// pendingPromo is a promotion observed in a shard's replicated apply
// whose story has not yet entered the merged dense prefix.
type pendingPromo struct {
	id digg.StoryID
	at digg.Minutes
}

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

// OpenFollower recovers a sharded store for replication catch-up. It
// differs from Open in one decision: stories beyond the merged dense
// prefix are NOT trimmed. On a crashed primary those trailing records
// belong to unacknowledged writes; on a follower they belong to
// acknowledged primary writes whose sibling-shard records simply have
// not streamed in yet, and trimming them would checkpoint them away at
// LSNs the stream will never resend. The merged views stop at the
// dense prefix; AbsorbReplicated extends them as the streams catch up.
func OpenFollower(dir string, opts durable.Options) (*Store, error) {
	s, err := openShards(dir, opts)
	if err != nil {
		return nil, err
	}
	n := s.n

	prefix := s.densePrefix()
	s.stories = make([]*digg.Story, prefix)
	for k := 0; k < prefix; k++ {
		s.stories[k] = s.plats[k%n].Stories()[k/n]
	}
	// Partition the shards' promotion orders: stories inside the prefix
	// are released now via the same deterministic (PromotedAt, ID)
	// merge recovery uses; the rest wait in the pending list.
	var all []pendingPromo
	for i, p := range s.plats {
		ids := p.PromotedIDs()
		for _, id := range ids {
			all = append(all, pendingPromo{id: id, at: s.promotedAtLocal(id)})
		}
		s.replSeen[i] = len(ids)
	}
	sortPromos(all)
	for _, pp := range all {
		if int(pp.id) < prefix {
			s.recordPromotion(pp.id)
		} else {
			s.replPending = append(s.replPending, pp)
		}
	}
	s.rec = RecoveryInfo{Shards: recoveries(s.stores), Generation: s.Generation()}
	return s, nil
}

// promotedAtLocal reads a story's promotion time from its owning
// shard's platform, which works whether or not the story is in the
// merged sequence yet.
func (s *Store) promotedAtLocal(id digg.StoryID) digg.Minutes {
	return s.plats[int(id)%s.n].Stories()[int(id)/s.n].PromotedAt
}

func sortPromos(pp []pendingPromo) {
	sort.Slice(pp, func(i, j int) bool {
		if pp[i].at != pp[j].at {
			return pp[i].at < pp[j].at
		}
		return pp[i].id < pp[j].id
	})
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
// read views: the story sequence extends to the new dense prefix, and
// pending promotions whose stories entered it are released in
// (PromotedAt, ID) order — the ordering rule the bulk path applies to
// every batch and recovery applies to every restart. Requires the
// caller's write synchronization.
func (s *Store) AbsorbReplicated() {
	prefix := s.densePrefix()
	for id := len(s.stories); id < prefix; id++ {
		s.stories = append(s.stories, s.plats[id%s.n].Stories()[id/s.n])
	}
	for i, p := range s.plats {
		ids := p.PromotedIDs()
		for _, id := range ids[s.replSeen[i]:] {
			s.replPending = append(s.replPending, pendingPromo{id: id, at: s.promotedAtLocal(id)})
		}
		s.replSeen[i] = len(ids)
	}
	if len(s.replPending) == 0 {
		return
	}
	var ready []pendingPromo
	rest := s.replPending[:0]
	for _, pp := range s.replPending {
		if int(pp.id) < prefix {
			ready = append(ready, pp)
		} else {
			rest = append(rest, pp)
		}
	}
	s.replPending = rest
	if len(ready) == 0 {
		return
	}
	sortPromos(ready)
	for _, pp := range ready {
		s.recordPromotion(pp.id)
	}
}

// PromoteToPrimary converts a follower store into a writable primary.
// Shard tails beyond the merged dense prefix — records whose sibling-
// shard companions never arrived before the old primary died — are
// trimmed and checkpointed away, exactly as crash recovery treats
// unacknowledged bursts; the returned count reports how many stories
// that dropped. The caller must have stopped the replication tailers
// first and must hold the write lock.
func (s *Store) PromoteToPrimary() (trimmed int, err error) {
	s.AbsorbReplicated()
	prefix := len(s.stories)
	for i := 0; i < s.n; i++ {
		keep := ownedBelow(prefix, i, s.n)
		if dropped := s.plats[i].TrimStories(keep); dropped > 0 {
			trimmed += dropped
			if s.stores[i] != nil {
				if err := s.stores[i].Checkpoint(); err != nil {
					return trimmed, fmt.Errorf("shard: checkpointing shard %d after promotion trim: %w", i, err)
				}
			}
		}
		s.replSeen[i] = len(s.plats[i].PromotedIDs())
	}
	s.replPending = s.replPending[:0]
	return trimmed, nil
}
