// Package apiv1 is the frozen, transport-agnostic contract for the v1
// HTTP API. It defines every request and response shape the /v1/*
// surface speaks, the machine-readable error envelope with its stable
// error codes, and the opaque generation-stamped cursors that paginate
// every list endpoint.
//
// The package deliberately contains no HTTP server or client code:
// internal/httpapi mounts these types under /v1/* and the typed client
// SDK decodes into them, but any other transport (a future gRPC
// gateway, a replay harness, golden-fixture tests) can speak the same
// contract. The only dependencies are the domain identifier types from
// internal/digg.
//
// Compatibility contract: shapes in this package are append-only.
// Fields may be added (with omitempty semantics where they are
// optional); existing fields, their JSON names, and the error code
// strings never change meaning. The one exception is the debug dumps
// (ObsDump, TimelineDump), operator surfaces that may also drop a
// field: v2.3 dropped ObsDump's lifetime instrument summaries. The
// golden fixtures under testdata/ pin the wire format, and CI refuses
// fixture changes that are not accompanied by a version note in
// docs/api.md.
package apiv1

import "diggsim/internal/digg"

// MaxBatch is the largest number of items accepted by the batch write
// endpoints (POST /v1/diggs:batch and POST /v1/stories:batch). Larger
// requests are rejected whole with CodeInvalidArgument.
const MaxBatch = 1000

// MaxPageSize caps the limit parameter of every v1 list endpoint.
// Requests asking for more are clamped, not rejected.
const MaxPageSize = 1000

// StorySummary is the list-view representation of a story (front page,
// upcoming queue, and story listings).
type StorySummary struct {
	ID          digg.StoryID `json:"id"`
	Title       string       `json:"title"`
	Submitter   digg.UserID  `json:"submitter"`
	SubmittedAt int64        `json:"submitted_at"`
	Promoted    bool         `json:"promoted"`
	PromotedAt  int64        `json:"promoted_at,omitempty"`
	Votes       int          `json:"votes"`
}

// VoteRecord is one vote in a story detail response, in chronological
// order with the submitter first — exactly the structure the paper
// scraped.
type VoteRecord struct {
	Voter digg.UserID `json:"voter"`
	At    int64       `json:"at"`
}

// StoryDetail is the full story view including its vote list.
type StoryDetail struct {
	StorySummary
	VoteList []VoteRecord `json:"vote_list"`
}

// StoriesPage is one cursor page of a story listing (/v1/stories,
// /v1/frontpage, /v1/upcoming). NextCursor is empty on the final page.
// Total is the number of stories in the listing as of the generation
// the page was served from (for /v1/upcoming it counts all unpromoted
// stories, including ones not yet visible at the serving clock).
type StoriesPage struct {
	Stories    []StorySummary `json:"stories"`
	Total      int            `json:"total"`
	NextCursor Cursor         `json:"next_cursor,omitempty"`
}

// UserInfo describes a user: fan/friend counts and reputation rank
// (0 when unranked).
type UserInfo struct {
	ID      digg.UserID `json:"id"`
	Fans    int         `json:"fans"`
	Friends int         `json:"friends"`
	Rank    int         `json:"rank"`
}

// UserLinksPage is one cursor page of a user's fans or friends.
type UserLinksPage struct {
	ID         digg.UserID   `json:"id"`
	Users      []digg.UserID `json:"users"`
	Total      int           `json:"total"`
	NextCursor Cursor        `json:"next_cursor,omitempty"`
}

// TopUsersPage is one cursor page of the reputation ranking, best
// first.
type TopUsersPage struct {
	Users      []digg.UserID `json:"users"`
	Total      int           `json:"total"`
	NextCursor Cursor        `json:"next_cursor,omitempty"`
}

// SubmitRequest creates a story (POST /v1/stories). A zero At defaults
// to the server's current simulation minute.
type SubmitRequest struct {
	Submitter digg.UserID `json:"submitter"`
	Title     string      `json:"title"`
	Interest  float64     `json:"interest"`
	At        int64       `json:"at"`
}

// DiggRequest casts a vote on a story named in the URL path
// (POST /v1/stories/{id}/digg). A zero At defaults to the server's
// current simulation minute.
type DiggRequest struct {
	Voter digg.UserID `json:"voter"`
	At    int64       `json:"at"`
}

// DiggResponse reports the outcome of a vote.
type DiggResponse struct {
	InNetwork bool `json:"in_network"`
	Promoted  bool `json:"promoted"`
	Votes     int  `json:"votes"`
}

// BatchDiggItem is one vote inside a batch write; unlike DiggRequest
// it names its story explicitly.
type BatchDiggItem struct {
	Story digg.StoryID `json:"story"`
	Voter digg.UserID  `json:"voter"`
	At    int64        `json:"at,omitempty"`
}

// BatchDiggRequest casts up to MaxBatch votes in one write transaction
// (POST /v1/diggs:batch): one lock acquisition and one snapshot
// republish for the whole batch.
type BatchDiggRequest struct {
	Diggs []BatchDiggItem `json:"diggs"`
}

// BatchDiggResult is the per-item outcome of a batch digg. Exactly one
// of the vote fields or Error is meaningful: a failed item carries its
// own error envelope and does not abort the rest of the batch.
type BatchDiggResult struct {
	InNetwork bool   `json:"in_network"`
	Promoted  bool   `json:"promoted"`
	Votes     int    `json:"votes"`
	Error     *Error `json:"error,omitempty"`
}

// BatchDiggResponse reports per-item outcomes in request order.
type BatchDiggResponse struct {
	Results []BatchDiggResult `json:"results"`
}

// BatchSubmitRequest creates up to MaxBatch stories in one write
// transaction (POST /v1/stories:batch).
type BatchSubmitRequest struct {
	Stories []SubmitRequest `json:"stories"`
}

// BatchSubmitResult is the per-item outcome of a batch submit.
type BatchSubmitResult struct {
	Story *StorySummary `json:"story,omitempty"`
	Error *Error        `json:"error,omitempty"`
}

// BatchSubmitResponse reports per-item outcomes in request order.
type BatchSubmitResponse struct {
	Results []BatchSubmitResult `json:"results"`
}
