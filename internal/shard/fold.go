package shard

// fold.go is the one place the merged views grow. Per-shard state
// advances independently — a write lands on one shard, a bulk burst on
// several at once, a replication stream on each shard at its own pace,
// recovery on all of them from disk — but the merged story sequence
// must stay dense (index == global ID) and the merged promotion order
// append-only. Every path that changes a shard calls fold afterwards,
// so every store orders promotions by one rule. With one shard the
// result is the shard's own order wherever the fold runs. With N >= 2
// the cross-shard merge sees only what each shard holds when the fold
// runs, so a running store or a live follower can interleave the shards
// differently from a restart of the same directory; Open and
// OpenFollower, which fold whole shards, always agree.

import (
	"fmt"
	"slices"

	"diggsim/internal/digg"
)

// fold extends the merged story sequence to the dense prefix, then
// releases each shard's not-yet-folded promotions in that shard's own
// order, merging across shards by (PromotedAt, ID). A shard stops at
// its first promotion whose story lies past the prefix; it resumes
// once the prefix reaches that story. Within a shard the order is the
// order the shard applied its votes, which is not always time order
// (a late vote with an early timestamp), so no sort could reproduce
// it. Caller is the single writer.
func (s *Store) fold() {
	prefix := s.densePrefix()
	if grow := prefix - len(s.stories); grow > 0 {
		s.stories = slices.Grow(s.stories, grow)
		for id := len(s.stories); id < prefix; id++ {
			s.stories = append(s.stories, s.plats[id%s.n].Stories()[id/s.n])
		}
	}
	for {
		best := -1
		var bestID digg.StoryID
		var bestAt digg.Minutes
		for i, p := range s.plats {
			ids := p.PromotedIDs()
			if s.folded[i] >= len(ids) || int(ids[s.folded[i]]) >= prefix {
				continue
			}
			id := ids[s.folded[i]]
			if at := s.stories[id].PromotedAt; best < 0 || at < bestAt || (at == bestAt && id < bestID) {
				best, bestID, bestAt = i, id, at
			}
		}
		if best < 0 {
			break
		}
		s.folded[best]++
		s.promoted = append(s.promoted, bestID)
		s.rank.Promote(s.stories[bestID].Submitter)
	}
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

// cut trims every shard to the dense prefix and checkpoints the shards
// that trimmed, so their logs (which still hold the trimmed records)
// can never replay them. On a crashed primary the stories past the
// prefix belong to a burst that never fully fsynced and was never
// acknowledged (a batch acks only after every shard's fsync); on a
// promoted follower they are records whose sibling-shard companions
// never arrived. Trimming never touches a folded promotion: fold stops
// each shard at its first promotion past the prefix. It returns how
// many stories it dropped.
func (s *Store) cut() (trimmed int, err error) {
	prefix := s.densePrefix()
	for i, p := range s.plats {
		dropped := p.TrimStories(ownedBelow(prefix, i, s.n))
		if dropped == 0 {
			continue
		}
		trimmed += dropped
		if err := s.stores[i].Checkpoint(); err != nil {
			return trimmed, fmt.Errorf("shard: checkpointing shard %d after trim: %w", i, err)
		}
	}
	return trimmed, nil
}

// ownedBelow returns how many global IDs below bound shard i owns
// under an n-way interleave.
func ownedBelow(bound, i, n int) int {
	if bound <= i {
		return 0
	}
	return (bound - i + n - 1) / n
}
