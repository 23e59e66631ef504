// Package live turns the simulated Digg platform into a running
// service: a real-time clock maps wall time to simulation minutes with
// a configurable speedup, a Poisson submission schedule keeps new
// stories arriving over the calibrated submitter mix, and the
// event-driven engine (agent.Stepper) advances every live story's
// pending exposures and discovery votes each tick — so the site
// evolves while it is being read, the defining property of the
// platform Lerman & Galstyan scraped. Typed events (submit, digg,
// promote, rank-change) fan out through a bounded Bus that slow
// subscribers cannot stall, and the whole run can be flushed to a
// dataset.Dataset on shutdown.
package live

import "diggsim/internal/digg"

// EventType tags a platform occurrence on the event stream.
type EventType string

const (
	// EventSubmit is a new story entering the upcoming queue.
	EventSubmit EventType = "submit"
	// EventDigg is one vote landing on a story.
	EventDigg EventType = "digg"
	// EventPromote is a story moving to the front page.
	EventPromote EventType = "promote"
	// EventRankChange is a submitter's reputation rank changing because
	// one of their stories was promoted.
	EventRankChange EventType = "rank_change"
	// EventLag is synthesized per-subscriber (never published on the
	// bus) when ring-buffer overflow dropped events for that
	// subscriber; Dropped carries how many.
	EventLag EventType = "lag"
)

// Event is one typed occurrence on a live platform. Seq is a bus-wide
// monotone sequence number assigned at publish time; At is the
// simulation minute the occurrence is stamped with.
type Event struct {
	Seq   uint64       `json:"seq,omitempty"`
	Type  EventType    `json:"type"`
	At    int64        `json:"at"`
	Story digg.StoryID `json:"story,omitempty"`
	User  digg.UserID  `json:"user,omitempty"`
	// Title is set on submit and promote events.
	Title string `json:"title,omitempty"`
	// Votes is the story's running vote count including this event's
	// vote: 1 on submit, the promoting vote's count on promote.
	Votes int `json:"votes,omitempty"`
	// InNetwork marks digg events that arrived through the Friends
	// interface.
	InNetwork bool `json:"in_network,omitempty"`
	// Rank is the submitter's new 1-based reputation rank on
	// rank_change events.
	Rank int `json:"rank,omitempty"`
	// Dropped is the number of events lost to ring-buffer overflow on
	// lag events.
	Dropped uint64 `json:"dropped,omitempty"`
	// PubNano is the monotonic instant (obs.Now) Bus.Publish stamped
	// the event at — the start of the publish→SSE-delivered freshness
	// span. Process-local, so it never goes on the wire.
	PubNano int64 `json:"-"`
}

// Stats is a point-in-time snapshot of a live service, served by the
// HTTP API's /v1/stats endpoint.
type Stats struct {
	// SimNow is the current simulation minute.
	SimNow int64 `json:"sim_now"`
	// Speedup is the configured sim-minutes-per-wall-minute factor.
	Speedup float64 `json:"speedup"`
	// ActiveStories is the number of stories still being stepped.
	ActiveStories int `json:"active_stories"`
	// TotalStories counts every story on the platform, including the
	// pregenerated corpus.
	TotalStories int `json:"total_stories"`
	// PromotedStories counts front-page stories platform-wide.
	PromotedStories int `json:"promoted_stories"`
	// Submits/Diggs/Promotions count live activity since the service
	// started (the pregenerated corpus is excluded).
	Submits    uint64 `json:"submits"`
	Diggs      uint64 `json:"diggs"`
	Promotions uint64 `json:"promotions"`
	// Subscribers is the number of open event-stream subscriptions;
	// EventsPublished and EventsDropped are bus-lifetime totals, and
	// MaxSubscriberQueue is the deepest per-subscriber backlog right
	// now (lag accounting).
	Subscribers        int    `json:"subscribers"`
	EventsPublished    uint64 `json:"events_published"`
	EventsDropped      uint64 `json:"events_dropped"`
	MaxSubscriberQueue int    `json:"max_subscriber_queue"`
}
