// Package digg simulates the Digg social news platform as described in
// §3 of Lerman & Galstyan (2008): users submit stories into an upcoming
// queue, vote ("digg") on stories, and a promotion algorithm moves the
// most promising stories to the front page. Users are connected by an
// asymmetric fan/friend graph, and the Friends interface makes a story
// visible to the fans of everyone who has voted on it.
//
// The simulator reproduces the platform behaviours the paper's analysis
// observes:
//
//   - an upcoming queue displaying recent submissions,
//   - a front page fed by a promotion policy (the classic vote-count and
//     vote-rate threshold, and the post-September-2006 "digging
//     diversity" variant),
//   - the Friends interface visibility rule, and
//   - a reputation ranking ("top users") based on promoted submissions.
//
// Time is measured in integer minutes from the start of the simulation,
// matching the paper's minute-resolution vote time series (Fig. 1).
package digg

import (
	"errors"
	"fmt"
	"sort"

	"diggsim/internal/dense"
	"diggsim/internal/graph"
)

// Minutes is simulation time in minutes since the simulation epoch.
type Minutes int64

// Day is the number of minutes in 24 hours, the window the classic
// promotion algorithm examines.
const Day Minutes = 24 * 60

// UserID identifies a user; it doubles as the user's node in the social
// graph.
type UserID = graph.NodeID

// StoryID identifies a story.
type StoryID int32

// Vote is a single digg on a story. Votes are stored in chronological
// order; the submitter's own vote is always first, mirroring the
// scraped data ("they are listed in chronological order, with
// submitter's name appearing first").
type Vote struct {
	Voter UserID
	At    Minutes
	// InNetwork records whether, at voting time, the voter was a fan of
	// the submitter or of any previous voter — i.e. the story was
	// visible to the voter through the Friends interface.
	InNetwork bool
}

// Story is a submitted news story and its full vote history.
type Story struct {
	ID          StoryID
	Title       string
	Submitter   UserID
	SubmittedAt Minutes
	Votes       []Vote
	Promoted    bool
	PromotedAt  Minutes // valid only when Promoted
	// Interest is the story's intrinsic appeal in [0, 1], used by the
	// behaviour model; it is hidden from analysis code, which must infer
	// interestingness from votes like the paper does.
	Interest float64
}

// VoteCount returns the current number of votes (including the
// submitter's).
func (s *Story) VoteCount() int { return len(s.Votes) }

// VotedAtOrBefore returns the number of votes cast at or before t.
func (s *Story) VotedAtOrBefore(t Minutes) int {
	// Votes are chronological; binary search for the cut.
	return sort.Search(len(s.Votes), func(i int) bool { return s.Votes[i].At > t })
}

// HasVoted reports whether u already voted on s. Voter sets are small
// (hundreds to thousands); the platform maintains a per-story set, this
// linear scan is only for external callers holding a bare Story.
func (s *Story) HasVoted(u UserID) bool {
	for _, v := range s.Votes {
		if v.Voter == u {
			return true
		}
	}
	return false
}

// Platform is the simulated Digg site. It is not safe for concurrent
// mutation; the discrete-event simulator drives it from one goroutine.
// Concurrent read-only access is safe only under external
// synchronization that excludes mutators: the live serving layer wraps
// the platform in a sync.RWMutex, with Submit/Digg under the write lock
// and every accessor under the read lock (the Ranking's lazy caches
// carry their own internal mutex so concurrent read-lock holders may
// fill them).
//
// Per-story voter and audience membership is held in pooled
// epoch-stamped dense sets (internal/dense) rather than per-story
// maps: CompactStory returns a story's sets to the pool and the next
// Submit reuses them with an O(1) reset, so sequential generate-and-
// compact workloads allocate no per-story membership state.
type Platform struct {
	Graph  *graph.Graph
	Policy PromotionPolicy

	// idOffset/idStep define the story ID scheme: the platform's k-th
	// story (dense local index k) carries global ID idOffset + k*idStep.
	// A standalone platform uses the identity scheme (0, 1); shard i of
	// an N-way sharded store uses (i, N), so the shards' ID sequences
	// interleave into one dense global sequence while each shard keeps
	// its O(1) dense-array bookkeeping. A zero idStep (a Platform built
	// without a constructor) reads as the identity scheme.
	idOffset StoryID
	idStep   StoryID

	stories  []*Story
	voted    []*dense.Set // per-story voter sets (nil once compacted)
	visible  []*dense.Set // per-story Friends-interface audience
	setPool  []*dense.Set // compacted sets awaiting reuse
	promoted []StoryID    // promotion order
	// gen is the platform generation: it increments on every mutation
	// (Submit, InstallStory, Digg, CommentOn, CompactStory), so a
	// serving layer can detect "anything changed" with one comparison
	// and derive cache validators (ETags) from it. Read it with
	// Generation under whatever synchronization excludes mutators.
	gen uint64
	// storyVer holds a per-story version counter parallel to stories:
	// 1 at submission, +1 per vote (a promotion rides on the vote that
	// caused it). Snapshot builders re-encode only stories whose
	// version moved since the last publication.
	storyVer []uint32
	// rank is the reputation ("top users") ranking over the platform's
	// promotions.
	rank *Ranking
	// comments holds all comments in insertion order (see comments.go).
	comments []Comment
}

// acquireSet returns an empty set covering the platform's users,
// reusing a pooled one when available.
func (p *Platform) acquireSet() *dense.Set {
	var m *dense.Set
	if k := len(p.setPool); k > 0 {
		m = p.setPool[k-1]
		p.setPool = p.setPool[:k-1]
	} else {
		m = &dense.Set{}
	}
	m.Reset(p.Graph.NumNodes())
	return m
}

// NewPlatform creates a platform over the given social graph using the
// supplied promotion policy (ClassicPromotion with default settings if
// nil).
func NewPlatform(g *graph.Graph, policy PromotionPolicy) *Platform {
	if policy == nil {
		policy = NewClassicPromotion()
	}
	return &Platform{
		Graph:  g,
		Policy: policy,
		idStep: 1,
		rank:   NewRanking(g),
	}
}

// NewShardPlatform creates a platform that owns shard `offset` of an
// N-way (`step`) interleaved global story ID space: its k-th story is
// assigned ID offset + k*step. Stories/NumStories still report the
// shard's local dense sequence; Story, Digg and every other by-ID
// accessor address stories by their global IDs. A sharded store
// (internal/shard) composes N such platforms into one dense global
// sequence. NewShardPlatform(g, policy, 0, 1) is NewPlatform.
func NewShardPlatform(g *graph.Graph, policy PromotionPolicy, offset, step StoryID) *Platform {
	if step < 1 || offset < 0 || offset >= step {
		panic(fmt.Sprintf("digg: invalid shard ID scheme (offset %d, step %d)", offset, step))
	}
	p := NewPlatform(g, policy)
	p.idOffset, p.idStep = offset, step
	return p
}

// IDScheme returns the platform's story ID scheme: global ID =
// offset + localIndex*step. Standalone platforms report (0, 1).
func (p *Platform) IDScheme() (offset, step StoryID) {
	if p.idStep < 1 {
		return 0, 1
	}
	return p.idOffset, p.idStep
}

// index maps a global story ID to the platform's dense local index, or
// -1 when the ID is not owned by this platform or not yet submitted.
func (p *Platform) index(id StoryID) int {
	off, step := p.IDScheme()
	if id < off || (id-off)%step != 0 {
		return -1
	}
	i := int((id - off) / step)
	if i >= len(p.stories) {
		return -1
	}
	return i
}

// nextID returns the global ID the next submitted story will carry.
func (p *Platform) nextID() StoryID {
	off, step := p.IDScheme()
	return off + StoryID(len(p.stories))*step
}

// NumStories returns the number of submitted stories.
func (p *Platform) NumStories() int { return len(p.stories) }

// Generation returns the platform generation, which increments on
// every mutation. Equal generations imply identical observable
// platform state, so caches keyed by generation never serve torn or
// stale data.
func (p *Platform) Generation() uint64 { return p.gen }

// StoryVersion returns story id's version counter (1 at submission,
// +1 per vote), or 0 if the story does not exist. A story's summary
// and vote list are unchanged while its version is unchanged.
func (p *Platform) StoryVersion(id StoryID) uint32 {
	i := p.index(id)
	if i < 0 {
		return 0
	}
	return p.storyVer[i]
}

// ErrNoStory is returned (wrapped with the id) when a story id does
// not exist. Transports match it with errors.Is to map "not found"
// without depending on message text.
var ErrNoStory = errors.New("digg: no story")

// Story returns the story with the given id, or an error wrapping
// ErrNoStory if it does not exist.
func (p *Platform) Story(id StoryID) (*Story, error) {
	i := p.index(id)
	if i < 0 {
		return nil, fmt.Errorf("%w %d", ErrNoStory, id)
	}
	return p.stories[i], nil
}

// Stories returns all stories in submission order. The slice is shared;
// callers must not modify it.
func (p *Platform) Stories() []*Story { return p.stories }

// ErrUnknownUser is returned when a user id falls outside the social
// graph.
var ErrUnknownUser = errors.New("digg: user outside social graph")

// ErrAlreadyVoted is returned when a user diggs a story twice.
var ErrAlreadyVoted = errors.New("digg: user already voted on story")

// ErrStoryCompacted is returned when voting on a story whose live state
// was released with CompactStory.
var ErrStoryCompacted = errors.New("digg: story state was compacted")

// Submit creates a new story submitted by u at time t with the given
// intrinsic interest. The submitter's implicit first vote is recorded,
// and the story becomes visible to the submitter's fans.
func (p *Platform) Submit(u UserID, title string, interest float64, t Minutes) (*Story, error) {
	if u < 0 || int(u) >= p.Graph.NumNodes() {
		return nil, ErrUnknownUser
	}
	s := &Story{
		ID:          p.nextID(),
		Title:       title,
		Submitter:   u,
		SubmittedAt: t,
		Interest:    interest,
	}
	s.Votes = append(s.Votes, Vote{Voter: u, At: t, InNetwork: false})
	p.stories = append(p.stories, s)
	p.storyVer = append(p.storyVer, 1)
	p.gen++
	voted := p.acquireSet()
	voted.Add(int(u))
	p.voted = append(p.voted, voted)
	aud := p.acquireSet()
	for _, fan := range p.Graph.Fans(u) {
		aud.Add(int(fan))
	}
	p.visible = append(p.visible, aud)
	return s, nil
}

// InstallStory adopts a fully simulated story (e.g. from an
// agent.Runner) as the next story on the platform. The story's ID must
// equal the next story index, its votes must be chronological with the
// submitter first, and its promotion outcome is taken as-is. Installed
// stories arrive in the compacted state: their live voter and audience
// bookkeeping was never materialized, so further Digg calls are
// rejected just as after CompactStory. Corpus generation installs
// pre-simulated stories in submission order instead of replaying every
// vote through Digg.
func (p *Platform) InstallStory(s *Story) error {
	if s.ID != p.nextID() {
		return fmt.Errorf("digg: InstallStory out of order: story %d, next id %d", s.ID, p.nextID())
	}
	if s.Submitter < 0 || int(s.Submitter) >= p.Graph.NumNodes() {
		return ErrUnknownUser
	}
	if len(s.Votes) == 0 || s.Votes[0].Voter != s.Submitter {
		return fmt.Errorf("digg: InstallStory: story %d missing submitter's implicit vote", s.ID)
	}
	p.stories = append(p.stories, s)
	p.storyVer = append(p.storyVer, 1)
	p.gen++
	p.voted = append(p.voted, nil)
	p.visible = append(p.visible, nil)
	if s.Promoted {
		p.promoted = append(p.promoted, s.ID)
		p.rank.Promote(s.Submitter)
	}
	return nil
}

// DiggResult reports the consequences of a vote.
type DiggResult struct {
	InNetwork bool // vote arrived through the Friends interface audience
	Promoted  bool // this vote triggered promotion to the front page
	Votes     int  // the story's vote count including this vote
}

// Digg records a vote by u on story id at time t. The vote is flagged
// in-network if u was in the story's Friends-interface audience (a fan
// of the submitter or any prior voter) at voting time. After the vote,
// u's fans join the audience and the promotion policy is consulted.
func (p *Platform) Digg(id StoryID, u UserID, t Minutes) (DiggResult, error) {
	i := p.index(id)
	if i < 0 {
		return DiggResult{}, fmt.Errorf("%w %d", ErrNoStory, id)
	}
	s := p.stories[i]
	if u < 0 || int(u) >= p.Graph.NumNodes() {
		return DiggResult{}, ErrUnknownUser
	}
	if p.voted[i] == nil {
		return DiggResult{}, ErrStoryCompacted
	}
	if p.voted[i].Contains(int(u)) {
		return DiggResult{}, ErrAlreadyVoted
	}
	if n := len(s.Votes); n > 0 && t < s.Votes[n-1].At {
		// Keep the vote list chronological (VotedAtOrBefore binary-
		// searches it): when a live stepper catches up behind an
		// external vote stamped at the current sim minute, its earlier
		// pending votes clamp forward to the newest recorded time.
		t = s.Votes[n-1].At
	}
	inNet := p.visible[i].Contains(int(u))
	s.Votes = append(s.Votes, Vote{Voter: u, At: t, InNetwork: inNet})
	p.storyVer[i]++
	p.gen++
	p.voted[i].Add(int(u))
	for _, fan := range p.Graph.Fans(u) {
		p.visible[i].Add(int(fan))
	}
	res := DiggResult{InNetwork: inNet, Votes: len(s.Votes)}
	if !s.Promoted && p.Policy.ShouldPromote(s, t) {
		s.Promoted = true
		s.PromotedAt = t
		p.promoted = append(p.promoted, id)
		p.rank.Promote(s.Submitter)
		res.Promoted = true
	}
	return res, nil
}

// Audience returns the number of users who can currently see story id
// through the Friends interface (the story's "influence" in the paper's
// terms). The submitter and voters themselves are not counted unless
// they are also fans of a voter.
func (p *Platform) Audience(id StoryID) int {
	i := p.index(id)
	if i < 0 || p.visible[i] == nil {
		return 0
	}
	return p.visible[i].Len()
}

// CanSee reports whether user u currently sees story id through the
// Friends interface.
func (p *Platform) CanSee(id StoryID, u UserID) bool {
	i := p.index(id)
	if i < 0 || p.visible[i] == nil || u < 0 {
		return false
	}
	return p.visible[i].Contains(int(u))
}

// CompactStory releases the per-story voter and audience bookkeeping
// once a story's lifetime has been fully simulated. The vote history
// (including in-network flags) is retained; further Digg calls on the
// story will be rejected, and Audience/CanSee report zero. Large-corpus
// generation calls this after each story to bound memory.
func (p *Platform) CompactStory(id StoryID) error {
	i := p.index(id)
	if i < 0 {
		return fmt.Errorf("%w %d", ErrNoStory, id)
	}
	if p.voted[i] != nil {
		p.setPool = append(p.setPool, p.voted[i], p.visible[i])
		p.voted[i] = nil
		p.visible[i] = nil
		p.gen++ // Audience/CanSee observably change
	}
	return nil
}

// TrimStories truncates the platform to its first keep stories (local
// dense order), discarding later submissions along with their votes,
// promotion entries and comments, and returns how many stories were
// dropped. It exists for sharded crash recovery: when one shard's WAL
// is durable past another's, the trailing stories beyond the first
// hole in the merged global ID sequence belong to writes that were
// never acknowledged, and recovery trims them so the merged sequence
// stays dense. Callers must checkpoint immediately afterwards so the
// shard's WAL cannot resurrect the trimmed records.
func (p *Platform) TrimStories(keep int) int {
	if keep < 0 {
		keep = 0
	}
	n := len(p.stories)
	if keep >= n {
		return 0
	}
	off, step := p.IDScheme()
	cut := off + StoryID(keep)*step
	// Owned IDs are monotone in the local index, so id >= cut exactly
	// identifies trimmed stories wherever they appear.
	kept := p.promoted[:0]
	for _, id := range p.promoted {
		if id >= cut {
			p.rank.Unpromote(p.stories[p.index(id)].Submitter)
			continue
		}
		kept = append(kept, id)
	}
	p.promoted = kept
	keptComments := p.comments[:0]
	for _, c := range p.comments {
		if c.Story < cut {
			keptComments = append(keptComments, c)
		}
	}
	p.comments = keptComments
	for i := keep; i < n; i++ {
		if p.voted[i] != nil {
			p.setPool = append(p.setPool, p.voted[i], p.visible[i])
		}
		p.voted[i], p.visible[i] = nil, nil
		p.stories[i] = nil
	}
	p.stories = p.stories[:keep]
	p.storyVer = p.storyVer[:keep]
	p.voted = p.voted[:keep]
	p.visible = p.visible[:keep]
	p.gen++
	return n - keep
}

// Upcoming returns stories that are not yet promoted, newest first,
// limited to limit entries (limit <= 0 means no limit) — the upcoming
// stories queue as displayed on the site.
func (p *Platform) Upcoming(now Minutes, limit int) []*Story {
	var out []*Story
	for i := len(p.stories) - 1; i >= 0; i-- {
		s := p.stories[i]
		if s.Promoted || s.SubmittedAt > now {
			continue
		}
		out = append(out, s)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// FrontPage returns promoted stories, most recently promoted first,
// limited to limit entries (limit <= 0 means no limit).
func (p *Platform) FrontPage(limit int) []*Story {
	var out []*Story
	for i := len(p.promoted) - 1; i >= 0; i-- {
		out = append(out, p.stories[p.index(p.promoted[i])])
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// PromotedCount returns the number of front-page stories.
func (p *Platform) PromotedCount() int { return len(p.promoted) }

// FriendActivity summarizes what u's friends did in the window
// (since, now], mirroring Digg's Friends interface summary ("the number
// of stories his friends have submitted, commented on or voted on in
// the preceding 48 hours").
type FriendActivity struct {
	Submitted []StoryID
	Dugg      []StoryID
	Commented []StoryID
}

// FriendsInterface computes the friend-activity view for u: stories
// submitted or dugg by users u watches within the window.
func (p *Platform) FriendsInterface(u UserID, since, now Minutes) FriendActivity {
	watched := make(map[UserID]struct{})
	for _, f := range p.Graph.Friends(u) {
		watched[f] = struct{}{}
	}
	var act FriendActivity
	seenSub := make(map[StoryID]struct{})
	seenDug := make(map[StoryID]struct{})
	for _, s := range p.stories {
		if s.SubmittedAt > now {
			continue
		}
		if _, ok := watched[s.Submitter]; ok && s.SubmittedAt > since {
			if _, dup := seenSub[s.ID]; !dup {
				act.Submitted = append(act.Submitted, s.ID)
				seenSub[s.ID] = struct{}{}
			}
		}
		for _, v := range s.Votes[1:] { // skip submitter's implicit vote
			if v.At <= since || v.At > now {
				continue
			}
			if _, ok := watched[v.Voter]; ok {
				if _, dup := seenDug[s.ID]; !dup {
					act.Dugg = append(act.Dugg, s.ID)
					seenDug[s.ID] = struct{}{}
				}
				break
			}
		}
	}
	act.Commented = p.commentedStories(watched, since, now)
	return act
}

// TopUsers returns up to k users ranked by promoted front-page
// submissions (descending), breaking ties by fan count then ID — the
// site's "Top Users" reputation list (see Ranking).
func (p *Platform) TopUsers(k int) []UserID { return p.rank.TopUsers(k) }

// Ranks returns the shared, immutable user → 1-based reputation rank
// map (users without promoted stories are absent).
func (p *Platform) Ranks() map[UserID]int { return p.rank.Ranks() }

// UserRank returns the 1-based reputation rank of u (1 = most promoted
// submissions) or 0 if u has no promoted stories.
func (p *Platform) UserRank(u UserID) int { return p.rank.UserRank(u) }
