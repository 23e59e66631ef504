// Package cascade implements the information-spread analysis of §4 of
// the paper: story influence (the number of users who can see a story
// through the Friends interface), in-network vote counting, and cascade
// statistics.
//
// Everything here is computed offline from a chronological voter list
// plus the social graph — the same observables the paper extracted by
// scraping Digg — and is deliberately independent of the simulator's
// internal bookkeeping. The digg.Platform computes in-network flags
// online; tests cross-check both paths agree.
package cascade

import (
	"diggsim/internal/digg"
	"diggsim/internal/graph"
)

// Voters extracts the chronological voter list of a story (submitter
// first).
func Voters(s *digg.Story) []digg.UserID {
	out := make([]digg.UserID, len(s.Votes))
	for i, v := range s.Votes {
		out[i] = v.Voter
	}
	return out
}

// InfluenceAt returns the story's influence after the first k votes:
// the number of distinct users who can see the story through the
// Friends interface, i.e. the union of the fans of the first k voters
// (the submitter's implicit vote is voters[0], so k = 1 is "at
// submission"). k is clamped to [0, len(voters)].
func InfluenceAt(g *graph.Graph, voters []digg.UserID, k int) int {
	if k > len(voters) {
		k = len(voters)
	}
	seen := make(map[digg.UserID]struct{})
	for _, v := range voters[:max(k, 0)] {
		for _, fan := range g.Fans(v) {
			seen[fan] = struct{}{}
		}
	}
	return len(seen)
}

// InfluenceSeries returns the influence after each vote count in ks,
// computed in one pass (ks must be ascending; values are clamped).
func InfluenceSeries(g *graph.Graph, voters []digg.UserID, ks []int) []int {
	out := make([]int, len(ks))
	seen := make(map[digg.UserID]struct{})
	vi := 0
	for i, k := range ks {
		if k > len(voters) {
			k = len(voters)
		}
		for ; vi < k; vi++ {
			for _, fan := range g.Fans(voters[vi]) {
				seen[fan] = struct{}{}
			}
		}
		out[i] = len(seen)
	}
	return out
}

// IsInNetwork reports whether the voter at index idx (idx >= 1; index 0
// is the submitter) was a fan of the submitter or of any earlier voter
// — that is, whether voter idx watches any of voters[:idx].
func IsInNetwork(g *graph.Graph, voters []digg.UserID, idx int) bool {
	if idx <= 0 || idx >= len(voters) {
		return false
	}
	v := voters[idx]
	// Check the smaller adjacency: v's watch list vs the prior voters.
	friends := g.Friends(v)
	if len(friends) <= idx {
		prior := make(map[digg.UserID]struct{}, idx)
		for _, p := range voters[:idx] {
			prior[p] = struct{}{}
		}
		for _, f := range friends {
			if _, ok := prior[f]; ok {
				return true
			}
		}
		return false
	}
	for _, p := range voters[:idx] {
		if g.HasEdge(v, p) {
			return true
		}
	}
	return false
}

// InNetworkFlags returns, for each vote after the submitter's, whether
// it was in-network. flags[i] corresponds to voters[i+1].
func InNetworkFlags(g *graph.Graph, voters []digg.UserID) []bool {
	if len(voters) < 2 {
		return nil
	}
	flags := make([]bool, len(voters)-1)
	prior := make(map[digg.UserID]struct{}, len(voters))
	prior[voters[0]] = struct{}{}
	for i := 1; i < len(voters); i++ {
		v := voters[i]
		for _, f := range g.Friends(v) {
			if _, ok := prior[f]; ok {
				flags[i-1] = true
				break
			}
		}
		prior[v] = struct{}{}
	}
	return flags
}

// InNetworkCount returns the number of in-network votes among the first
// k votes not counting the submitter (i.e. among voters[1:k+1]), which
// is the paper's cascade size and its v6/v10/v20 classifier features.
func InNetworkCount(g *graph.Graph, voters []digg.UserID, k int) int {
	flags := InNetworkFlags(g, voters)
	if k > len(flags) {
		k = len(flags)
	}
	n := 0
	for i := 0; i < k; i++ {
		if flags[i] {
			n++
		}
	}
	return n
}

// Stats bundles the per-story spread measurements used by the figures.
type Stats struct {
	StoryID    digg.StoryID
	Submitter  digg.UserID
	FinalVotes int
	// SubmitterFans is the paper's fans1 attribute.
	SubmitterFans int
	// InfluenceAtSubmission, After10 and After20 reproduce Fig. 3(a).
	InfluenceAtSubmission int
	InfluenceAfter10      int
	InfluenceAfter20      int
	// InNet6/10/20/30 are in-network counts within the first 6, 10, 20
	// and 30 votes (not counting the submitter), reproducing Fig. 3(b)
	// and Fig. 4.
	InNet6, InNet10, InNet20, InNet30 int
}

// Analyze computes the spread statistics of one story.
func Analyze(g *graph.Graph, s *digg.Story) Stats {
	voters := Voters(s)
	infl := InfluenceSeries(g, voters, []int{1, 11, 21})
	return Stats{
		StoryID:               s.ID,
		Submitter:             s.Submitter,
		FinalVotes:            s.VoteCount(),
		SubmitterFans:         g.InDegree(s.Submitter),
		InfluenceAtSubmission: infl[0],
		InfluenceAfter10:      infl[1],
		InfluenceAfter20:      infl[2],
		InNet6:                InNetworkCount(g, voters, 6),
		InNet10:               InNetworkCount(g, voters, 10),
		InNet20:               InNetworkCount(g, voters, 20),
		InNet30:               InNetworkCount(g, voters, 30),
	}
}

// AnalyzeAll computes spread statistics for every story.
func AnalyzeAll(g *graph.Graph, stories []*digg.Story) []Stats {
	out := make([]Stats, len(stories))
	for i, s := range stories {
		out[i] = Analyze(g, s)
	}
	return out
}

// Tree reconstructs the vote cascade as a forest: each in-network vote
// is attached to the earliest prior voter it watches; out-of-network
// votes are roots. Parent[i] is the index (into voters) of the parent
// of voter i, or -1 for roots. The submitter (index 0) is always a
// root.
func Tree(g *graph.Graph, voters []digg.UserID) (parent []int) {
	parent = make([]int, len(voters))
	for i := range parent {
		parent[i] = -1
	}
	idxOf := make(map[digg.UserID]int, len(voters))
	if len(voters) > 0 {
		idxOf[voters[0]] = 0
	}
	for i := 1; i < len(voters); i++ {
		v := voters[i]
		best := -1
		for _, f := range g.Friends(v) {
			if j, ok := idxOf[f]; ok && (best == -1 || j < best) {
				best = j
			}
		}
		parent[i] = best
		idxOf[v] = i
	}
	return parent
}

// TreeDepths returns, for each voter index, its depth in the cascade
// forest (roots have depth 0).
func TreeDepths(parent []int) []int {
	depth := make([]int, len(parent))
	for i, p := range parent {
		if p >= 0 {
			depth[i] = depth[p] + 1
		}
	}
	return depth
}

// MaxDepth returns the deepest chain in the cascade forest, a measure
// of how far interest propagated hop by hop (recommendation chains in
// the viral-marketing literature terminate after a few steps; the
// reproduction checks ours do too).
func MaxDepth(parent []int) int {
	best := 0
	for _, d := range TreeDepths(parent) {
		if d > best {
			best = d
		}
	}
	return best
}
