package digg

import (
	"sort"
	"sync"

	"diggsim/internal/graph"
)

// Ranking is the site's reputation ("top users") ranking: every user
// with a promoted submission, ordered by promoted front-page
// submissions (descending), then fan count (descending), then ID. A
// Platform keeps one over its own promotions and a sharded store one
// over the merged promotion order.
//
// Promote and Unpromote update the tally under the store's single
// writer. The sorted order and the rank map are computed lazily on
// first read and dropped whenever the tally changes; mu guards that
// fill, so concurrent readers (HTTP handlers under the serving layer's
// read lock) may trigger it. A dropped order or map is replaced, never
// mutated, so one a reader already holds stays consistent.
type Ranking struct {
	graph    *graph.Graph
	promoted map[UserID]int

	mu     sync.Mutex
	ranks  map[UserID]int
	ranked []UserID
}

// NewRanking returns an empty ranking whose ties break by fan count in
// g.
func NewRanking(g *graph.Graph) *Ranking {
	return &Ranking{graph: g, promoted: make(map[UserID]int)}
}

// Promote counts one more promoted submission by u.
func (r *Ranking) Promote(u UserID) {
	r.promoted[u]++
	r.invalidate()
}

// Unpromote takes back one promoted submission by u, for a promoted
// story that TrimStories drops.
func (r *Ranking) Unpromote(u UserID) {
	if r.promoted[u]--; r.promoted[u] <= 0 {
		delete(r.promoted, u)
	}
	r.invalidate()
}

func (r *Ranking) invalidate() {
	r.mu.Lock()
	r.ranks = nil
	r.ranked = nil
	r.mu.Unlock()
}

// rankedLocked returns the full ordering, computing and caching it on
// first use. Callers hold mu; the returned slice is the cache and must
// not be modified.
func (r *Ranking) rankedLocked() []UserID {
	if r.ranked != nil {
		return r.ranked
	}
	type entry struct {
		u        UserID
		promoted int
	}
	entries := make([]entry, 0, len(r.promoted))
	for u, c := range r.promoted {
		entries = append(entries, entry{u, c})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].promoted != entries[j].promoted {
			return entries[i].promoted > entries[j].promoted
		}
		fi, fj := r.graph.InDegree(entries[i].u), r.graph.InDegree(entries[j].u)
		if fi != fj {
			return fi > fj
		}
		return entries[i].u < entries[j].u
	})
	ranked := make([]UserID, len(entries))
	for i, e := range entries {
		ranked[i] = e.u
	}
	r.ranked = ranked
	return ranked
}

// TopUsers returns up to k users, best first, in a fresh slice.
func (r *Ranking) TopUsers(k int) []UserID {
	r.mu.Lock()
	defer r.mu.Unlock()
	ranked := r.rankedLocked()
	out := make([]UserID, max(0, min(k, len(ranked))))
	copy(out, ranked)
	return out
}

// Ranks returns the user -> 1-based rank map (users without promoted
// stories are absent). The map is shared and never mutated in place,
// so callers that obtained it while mutators were excluded may keep
// reading it without any lock.
func (r *Ranking) Ranks() map[UserID]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ranksLocked()
}

func (r *Ranking) ranksLocked() map[UserID]int {
	if r.ranks == nil {
		ranked := r.rankedLocked()
		m := make(map[UserID]int, len(ranked))
		for i, u := range ranked {
			m[u] = i + 1
		}
		r.ranks = m
	}
	return r.ranks
}

// UserRank returns u's 1-based rank, or 0 if u has no promoted story.
func (r *Ranking) UserRank(u UserID) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ranksLocked()[u]
}
