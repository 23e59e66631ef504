// Package httpapi exposes the simulated Digg platform over HTTP/JSON
// and provides a typed client plus a concurrent scraper. Together they
// reproduce the paper's data-collection pipeline (a Fetch Technologies
// scraper against digg.com) against the simulator: cmd/diggd serves the
// corpus, cmd/diggscrape crawls it over TCP and writes the dataset
// files the analysis loads.
//
// # API versions
//
// The server speaks one API generation: the versioned /v1/* surface
// with the frozen contract types of internal/apiv1 — cursor-paginated
// list endpoints, a machine-readable error envelope with stable codes,
// batch write endpoints, and conditional GETs. Every endpoint has one
// handler, one error envelope and one write fence. The unversioned
// pre-v1 aliases were removed in v2.0 — see docs/api.md.
//
// The server is written against digg.Store, the command/query
// interface of the storage layer: the in-memory *digg.Platform and
// shard.Store, which every durable node serves, take the same code
// paths through it.
//
// # Read-path architecture
//
// Every list endpoint has one serving path: the lock-free snapshot.
//
// Every write — an HTTP POST (single or batch), or a live.Service
// simulation step when one is attached — mutates the store under the
// write lock and then republishes a ReadView: an immutable snapshot
// holding per-story summaries pre-serialized to JSON bytes, the
// store's append-only promotion order, the upcoming queue, the whole
// top-user ranking and a generation-derived ETag. The view is
// published through an atomic pointer, so the hot read endpoints (frontpage, upcoming, stories, story detail, topusers,
// users) serve whole responses by writing cached bytes — no store
// lock, no intermediate structs, no encoding/json reflection, and zero
// allocations per request. Publication is incremental: digg.Platform's
// generation and per-story version counters let a rebuild re-encode
// only stories that changed, and story details (vote lists) are
// encoded lazily on first request and cached per (story, version).
// The queue endpoints answer If-None-Match revalidations with 304
// Not Modified.
//
// v1 cursors (see apiv1.Cursor) carry an endpoint-specific boundary
// key (submission index, promotion index, story id, or rank position)
// chosen to stay stable across platform generations, plus generation
// and story-version provenance stamps. Every page, at any depth, is
// cut straight from whichever snapshot is published when the request
// lands — so a paginated crawl under the live writer never duplicates
// and never skips an entry that existed when the crawl began, no
// matter how many generations publish between pages.
//
// The shared RWMutex remains for everything that needs a point-in-time
// read of the mutable store: the write endpoints themselves, snapshot
// rebuilds, detail-cache fills, and story details newer than the
// published snapshot. Fans/friends endpoints read only the immutable
// social graph and take no lock at all.
//
// # Clocks: SetNowFunc vs AttachLive
//
// Use Server.AttachLive when a live.Service drives the platform: the
// server adopts the service's lock and simulation clock, republishes
// the snapshot after every step, and gains the stream and live stats
// endpoints. Use Server.SetNowFunc when the platform is static but
// the site clock should still advance (cmd/diggd's default mode maps
// wall time onto sim minutes): nothing mutates, so no republication
// happens — the upcoming queue instead filters its snapshot entries
// against the clock at serve time. A bare SetNow remains for
// tests that pin the clock.
package httpapi

import (
	"diggsim/internal/apiv1"
	"diggsim/internal/digg"
)

func summarize(s *digg.Story) apiv1.StorySummary {
	sum := apiv1.StorySummary{
		ID:          s.ID,
		Title:       s.Title,
		Submitter:   s.Submitter,
		SubmittedAt: int64(s.SubmittedAt),
		Promoted:    s.Promoted,
		Votes:       s.VoteCount(),
	}
	if s.Promoted {
		sum.PromotedAt = int64(s.PromotedAt)
	}
	return sum
}

func detail(s *digg.Story) apiv1.StoryDetail {
	d := apiv1.StoryDetail{StorySummary: summarize(s)}
	d.VoteList = make([]apiv1.VoteRecord, len(s.Votes))
	for i, v := range s.Votes {
		d.VoteList[i] = apiv1.VoteRecord{Voter: v.Voter, At: int64(v.At)}
	}
	return d
}
