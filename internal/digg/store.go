package digg

import (
	"fmt"

	"diggsim/internal/graph"
)

// Store is the command/query seam between the statistical core and
// every serving-layer consumer: httpapi.Server, live.Service, the
// agent stepper and the dataset exporter all compile against this
// interface rather than a concrete store. The in-memory *Platform
// implements it, and so does internal/shard's Store, which partitions
// stories over N platforms and is also the shape of every durable
// node. Batching, bulk writes and the shard layout are part of the
// contract, so every consumer takes one code path whatever store it
// serves.
//
// Concurrency contract: a Store is single-writer. The commands
// (Submit, InstallStory, Digg, CompactStory, the bulk writes and the
// batch bracket) and the queries share whatever external
// synchronization the caller provides (the serving layer's RWMutex);
// implementations may additionally make individual queries internally
// synchronized or lock-free, as *Platform does for UserRank, Ranks and
// SocialGraph.
type Store interface {
	Batcher
	BulkWriter
	Sharded

	// --- queries ---

	// Generation increments on every mutation; equal generations imply
	// identical observable state. Serving layers derive cache
	// validators (ETags, cursor stamps) from it.
	Generation() uint64
	// NumStories returns the number of submitted stories.
	NumStories() int
	// StoryVersion returns the story's version counter (1 at
	// submission, +1 per vote), or 0 if it does not exist.
	StoryVersion(id StoryID) uint32
	// Story returns the story with the given id.
	Story(id StoryID) (*Story, error)
	// Stories returns all stories in submission order. The slice is
	// shared and append-only; callers must not modify it.
	Stories() []*Story
	// FrontPage returns promoted stories, most recently promoted
	// first (limit <= 0 means no limit).
	FrontPage(limit int) []*Story
	// PromotedCount returns the number of front-page stories.
	PromotedCount() int
	// PromotedIDs returns story ids in promotion order, oldest first.
	// The slice is shared and append-only: indices never change
	// meaning, which is what makes front-page cursors stable.
	PromotedIDs() []StoryID
	// Upcoming returns unpromoted stories visible at now, newest
	// first (limit <= 0 means no limit).
	Upcoming(now Minutes, limit int) []*Story
	// TopUsers returns up to k users ranked by promoted submissions.
	TopUsers(k int) []UserID
	// Ranks returns the shared, immutable user -> 1-based rank map.
	Ranks() map[UserID]int
	// UserRank returns u's 1-based reputation rank (0 if unranked).
	UserRank(u UserID) int
	// SocialGraph returns the immutable fan/friend graph.
	SocialGraph() *graph.Graph

	// --- commands ---

	// Submit creates a new story with the submitter's implicit first
	// vote.
	Submit(u UserID, title string, interest float64, t Minutes) (*Story, error)
	// InstallStory adopts a fully simulated story as the next story.
	InstallStory(s *Story) error
	// Digg records a vote, consulting the promotion policy.
	Digg(id StoryID, u UserID, t Minutes) (DiggResult, error)
	// CompactStory releases a story's live voter/audience bookkeeping.
	CompactStory(id StoryID) error
}

// Batcher groups the durability cost of many commands. Callers that
// apply a burst of single commands under one lock acquisition (the
// live stepper's per-tick command stream) bracket the burst with
// BeginBatch/EndBatch; a store that persists commands (each durable
// shard of a shard.Store) then stages the burst's log records in
// memory and commits them as a single write-ahead append and one fsync
// in EndBatch. Between the calls the commands apply to the in-memory
// state as usual, so reads issued inside the batch (and the command
// results themselves) see their own writes; the durability
// acknowledgment is EndBatch returning nil. On an in-memory *Platform
// the bracket does nothing.
//
// Like the command methods, BeginBatch and EndBatch require the
// caller's external write synchronization. Batches do not nest.
type Batcher interface {
	BeginBatch()
	EndBatch() error
}

// DiggOp is one vote in a bulk write.
type DiggOp struct {
	Story StoryID
	User  UserID
	At    Minutes
}

// DiggOutcome is the per-op result of a bulk vote application:
// exactly what the equivalent Digg call would have returned.
type DiggOutcome struct {
	Result DiggResult
	Err    error
}

// SubmitOp is one submission in a bulk write.
type SubmitOp struct {
	User     UserID
	Title    string
	Interest float64
	At       Minutes
}

// SubmitOutcome is the per-op result of a bulk submission: exactly
// what the equivalent Submit call would have returned.
type SubmitOutcome struct {
	Story *Story
	Err   error
}

// BulkWriter applies a burst of same-kind commands as one unit (the v1
// batch endpoints hand it each request's whole burst). A sharded store
// splits the burst into per-shard sub-batches applied concurrently,
// each in its shard's own batch bracket (one WAL append and one fsync
// per shard per burst), which is where multi-core write throughput
// comes from; a *Platform applies the ops in order, one command each.
//
// Semantics match the serial loop exactly: outcomes land at the index
// of their op, each op sees the writes of earlier ops on the same
// story, and per-op rejections (ErrAlreadyVoted, ErrUnknownUser, ...)
// are reported in the outcome, not the return value. The returned
// error is batch-level: a durability failure that leaves the burst
// unacknowledged as a whole. out must be len(ops).
//
// Like the other commands, calls require the caller's external write
// synchronization; implementations manage any internal batching, so
// callers must NOT bracket a BulkWriter call with Batcher.
type BulkWriter interface {
	DiggMany(ops []DiggOp, out []DiggOutcome) error
	SubmitMany(ops []SubmitOp, out []SubmitOutcome) error
}

// Sharded reports the shard layout. The serving layer stamps cursors
// and read views with the per-shard generation vector, so pagination
// guarantees survive sharding, and rejects a cursor minted under
// another layout. A *Platform is unsharded: it reports no shards and
// an empty vector, so its cursors carry none.
type Sharded interface {
	// ShardCount returns the number of shards (0 when unsharded).
	ShardCount() int
	// ShardGenerations appends the per-shard generation vector to dst
	// and returns it. When sharded, the sum equals Generation().
	ShardGenerations(dst []uint64) []uint64
}

// Platform is the canonical in-memory unsharded Store.
var _ Store = (*Platform)(nil)

// BeginBatch does nothing: an in-memory platform has no durability
// cost to group.
func (p *Platform) BeginBatch() {}

// EndBatch does nothing and never fails.
func (p *Platform) EndBatch() error { return nil }

// DiggMany applies ops in order, one Digg each, exactly as the serial
// loop BulkWriter specifies. It never returns a batch-level error.
func (p *Platform) DiggMany(ops []DiggOp, out []DiggOutcome) error {
	if len(out) != len(ops) {
		panic(fmt.Sprintf("digg: DiggMany out len %d, ops len %d", len(out), len(ops)))
	}
	for i, op := range ops {
		res, err := p.Digg(op.Story, op.User, op.At)
		out[i] = DiggOutcome{Result: res, Err: err}
	}
	return nil
}

// SubmitMany applies ops in order, one Submit each. It never returns a
// batch-level error.
func (p *Platform) SubmitMany(ops []SubmitOp, out []SubmitOutcome) error {
	if len(out) != len(ops) {
		panic(fmt.Sprintf("digg: SubmitMany out len %d, ops len %d", len(out), len(ops)))
	}
	for i, op := range ops {
		st, err := p.Submit(op.User, op.Title, op.Interest, op.At)
		out[i] = SubmitOutcome{Story: st, Err: err}
	}
	return nil
}

// ShardCount returns 0: a platform is unsharded.
func (p *Platform) ShardCount() int { return 0 }

// ShardGenerations returns dst unchanged: a platform has no shard
// vector.
func (p *Platform) ShardGenerations(dst []uint64) []uint64 { return dst }

// SocialGraph returns the platform's immutable social graph,
// satisfying Store (the Graph field remains for direct users).
func (p *Platform) SocialGraph() *graph.Graph { return p.Graph }

// PromotedIDs returns story ids in promotion order, oldest first. The
// returned slice is shared and strictly append-only — existing
// elements are never rewritten — so a header copied under the
// platform's external lock remains valid to read after release.
func (p *Platform) PromotedIDs() []StoryID { return p.promoted }
