// Package dataset generates the calibrated synthetic Digg corpus used
// by every experiment, substituting for the paper's June-2006 scrape
// (the original dataset is unavailable).
//
// The generator builds a scale-free fan graph, draws submitters from a
// heavy-tailed activity distribution (the paper: the top 3% of users
// made 35% of front-page submissions), assigns each story an intrinsic
// interest, and simulates every story's lifetime with the behaviour
// model. It then takes the paper's two samples:
//
//   - a front-page sample: the most recently promoted stories as of the
//     snapshot time (the paper scraped "roughly 200 of the most
//     recently promoted stories" on June 30, 2006), and
//   - an upcoming-queue snapshot: stories in the queue at the snapshot
//     time, some of which are promoted later — exactly the population
//     the paper's §5.2 holdout test draws from.
//
// Final vote counts come from the full simulation, mirroring the
// paper's February-2008 re-crawl that fetched final counts for both
// samples.
package dataset

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"diggsim/internal/agent"
	"diggsim/internal/digg"
	"diggsim/internal/graph"
	"diggsim/internal/rng"
)

// Config parameterizes corpus generation. DefaultConfig returns the
// calibrated values; experiments override selectively (e.g. the
// promotion-policy ablation).
type Config struct {
	Seed uint64

	// Users is the social-graph size. The paper observed 16.6k distinct
	// voters plus the top-1020 network snapshot.
	Users int
	// GraphModel selects the fan-graph substrate (preferential
	// attachment by default; Erdős–Rényi and a flat configuration model
	// exist for the abl-graph ablation).
	GraphModel GraphModel
	// GraphM is the preferential-attachment out-degree (for the other
	// models, the mean fan count) and Reciprocity the probability a
	// watched user watches back (preferential attachment only).
	GraphM      int
	Reciprocity float64

	// Submissions is the number of stories submitted during the
	// SubmissionWindow; submit times are uniform over the window.
	Submissions      int
	SubmissionWindow digg.Minutes

	// SnapshotAt is the scrape time: front-page and upcoming samples
	// are taken as of this instant.
	SnapshotAt digg.Minutes

	// InterestExponent shapes the intrinsic-interest distribution:
	// interest = U(0,1)^InterestExponent. Values above 1 skew the
	// corpus toward uninteresting stories, as on the real site.
	InterestExponent float64

	// SubmitterZipfS is the Zipf exponent of submitter activity over
	// users ranked by fan count. 0.7 reproduces "top 3% of users made
	// 35% of the submissions".
	SubmitterZipfS float64

	// TopUserListSize is the size of the reputation snapshot (the paper
	// scraped the top-ranked 1020 users).
	TopUserListSize int
	// FrontPageSample is the size of the front-page story sample
	// (roughly 200 in the paper).
	FrontPageSample int

	// Agent is the behaviour model; Policy the promotion policy
	// (nil = classic 43-vote threshold). A non-nil Policy must be safe
	// for concurrent read-only use when Workers != 1 (the built-in
	// policies are).
	Agent  agent.Config
	Policy digg.PromotionPolicy

	// Workers is the number of story-simulation workers (0 = one per
	// available CPU). Stories are statistically independent given the
	// graph, and each draws from a substream keyed by (Seed, story
	// index), so the corpus is bit-identical for every worker count:
	// determinism is the contract, parallelism is just scheduling.
	Workers int
}

// DefaultConfig returns the calibrated generation parameters.
func DefaultConfig() Config {
	ac := agent.NewConfig()
	// A higher discovery rate than the single-story default lets
	// mid-interest stories reach the 43-vote promotion threshold
	// organically, which fills the middle of the final-vote histogram
	// (Fig. 2a) like the real front page; the lower front-page rate
	// scales final counts so that ~20% of the front-page sample stays
	// under 500 votes and ~20% exceeds 1500, the paper's bands.
	ac.QueueDiscoveryRate = 0.3
	ac.FrontPageRate = 0.5
	return Config{
		Seed:             20060630,
		Users:            20000,
		GraphM:           4,
		Reciprocity:      0.3,
		Submissions:      3000,
		SubmissionWindow: 3 * digg.Day,
		SnapshotAt:       3 * digg.Day,
		InterestExponent: 3,
		SubmitterZipfS:   0.7,
		TopUserListSize:  1020,
		FrontPageSample:  200,
		Agent:            ac,
	}
}

// GraphModel selects the social-graph generator for the corpus.
type GraphModel int

const (
	// GraphPreferential is the default scale-free fan graph
	// (heavy-tailed fan counts, like real Digg).
	GraphPreferential GraphModel = iota
	// GraphErdosRenyi gives every ordered pair an equal edge
	// probability: no hubs, no top users.
	GraphErdosRenyi
	// GraphFlat is a configuration model where every user requests the
	// same fan count: homogeneous connectivity with random wiring.
	GraphFlat
)

// String names the graph model.
func (m GraphModel) String() string {
	switch m {
	case GraphPreferential:
		return "preferential"
	case GraphErdosRenyi:
		return "erdos-renyi"
	case GraphFlat:
		return "flat"
	default:
		return fmt.Sprintf("graphmodel(%d)", int(m))
	}
}

// buildGraph constructs the configured substrate.
func buildGraph(cfg Config, r *rng.RNG) (*graph.Graph, error) {
	switch cfg.GraphModel {
	case GraphPreferential:
		return graph.PreferentialAttachment(r, cfg.Users, cfg.GraphM, cfg.Reciprocity)
	case GraphErdosRenyi:
		p := float64(cfg.GraphM) / float64(cfg.Users-1)
		return graph.ErdosRenyi(r, cfg.Users, p)
	case GraphFlat:
		degs := make([]int, cfg.Users)
		for i := range degs {
			degs[i] = cfg.GraphM
		}
		return graph.ConfigurationModel(r, degs)
	default:
		return nil, fmt.Errorf("dataset: unknown graph model %v", cfg.GraphModel)
	}
}

// SmallConfig returns a scaled-down configuration that generates in
// well under a second; tests and examples use it where full calibration
// fidelity is not needed.
func SmallConfig() Config {
	cfg := DefaultConfig()
	// Users stays large enough that high-interest stories can still
	// collect >1500 votes (the Fig. 2a upper band) before exhausting
	// the population.
	cfg.Users = 10000
	cfg.Submissions = 400
	cfg.SubmissionWindow = 2 * digg.Day
	cfg.SnapshotAt = 2 * digg.Day
	cfg.TopUserListSize = 200
	cfg.FrontPageSample = 60
	return cfg
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Users < 2:
		return errors.New("dataset: Users must be >= 2")
	case c.GraphM < 1:
		return errors.New("dataset: GraphM must be >= 1")
	case c.Submissions < 1:
		return errors.New("dataset: Submissions must be >= 1")
	case c.SubmissionWindow <= 0:
		return errors.New("dataset: SubmissionWindow must be > 0")
	case c.SnapshotAt <= 0:
		return errors.New("dataset: SnapshotAt must be > 0")
	case c.InterestExponent <= 0:
		return errors.New("dataset: InterestExponent must be > 0")
	case c.SubmitterZipfS <= 0:
		return errors.New("dataset: SubmitterZipfS must be > 0")
	case c.TopUserListSize < 1:
		return errors.New("dataset: TopUserListSize must be >= 1")
	case c.FrontPageSample < 1:
		return errors.New("dataset: FrontPageSample must be >= 1")
	case c.Workers < 0:
		return errors.New("dataset: Workers must be >= 0")
	}
	return c.Agent.Validate()
}

// Dataset is the generated corpus plus the two paper samples.
type Dataset struct {
	Config   Config
	Graph    *graph.Graph
	Platform *digg.Platform
	// Stories holds every submission in chronological order.
	Stories []*digg.Story
	// FrontPage is the front-page sample: the most recently promoted
	// stories as of SnapshotAt, oldest promotion first.
	FrontPage []*digg.Story
	// UpcomingAtSnapshot holds stories that sat unpromoted in the
	// upcoming queue at SnapshotAt (submitted within the preceding
	// day). Some are promoted after the snapshot.
	UpcomingAtSnapshot []*digg.Story
	// TopUsers is the reputation ranking (by promoted submissions) as
	// of the end of the simulation, at most TopUserListSize entries,
	// padded with the best-fanned remaining users like the paper's
	// top-1020 snapshot.
	TopUsers []digg.UserID
	// rankOf caches 1-based reputation ranks for RankOf.
	rankOf map[digg.UserID]int
}

// storyJob carries the pre-drawn inputs of one story simulation. All
// jobs are drawn from the master stream in story order before any
// simulation starts, so the fan-out below cannot perturb them.
type storyJob struct {
	submitter digg.UserID
	interest  float64
	at        digg.Minutes
}

// Generate builds the corpus. It is deterministic for a given Config,
// including Workers: every story is simulated on its own random
// substream keyed by (Seed, story index), so sequential and parallel
// generation produce bit-identical corpora.
func Generate(cfg Config) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := rng.New(cfg.Seed)
	g, err := buildGraph(cfg, r)
	if err != nil {
		return nil, err
	}
	platform := digg.NewPlatform(g, cfg.Policy)
	// One draw reserved for the simulation streams, in the same master-
	// stream position the sequential simulator's Split used to occupy.
	simSeed := r.Uint64()

	// Submitters: Zipf rank over users ordered by fan count.
	byFans := graph.TopByInDegree(g, g.NumNodes())
	zipf := rng.NewZipf(r, len(byFans), cfg.SubmitterZipfS)

	// Submission times: uniform over the window, sorted so story IDs
	// are chronological like scraped data.
	times := make([]digg.Minutes, cfg.Submissions)
	for i := range times {
		times[i] = digg.Minutes(r.Intn(int(cfg.SubmissionWindow)))
	}
	sortMinutes(times)

	jobs := make([]storyJob, cfg.Submissions)
	for i := range jobs {
		jobs[i] = storyJob{
			submitter: byFans[zipf.Draw()-1],
			interest:  math.Pow(r.Float64(), cfg.InterestExponent),
			at:        times[i],
		}
	}

	stories, err := simulateStories(cfg, g, simSeed, jobs)
	if err != nil {
		return nil, err
	}

	ds := &Dataset{Config: cfg, Graph: g, Platform: platform, Stories: stories}
	for _, st := range stories {
		// Installed stories arrive compacted: live voter/audience state
		// is never materialized for them, bounding generation memory.
		if err := platform.InstallStory(st); err != nil {
			return nil, err
		}
	}

	ds.FrontPage = frontPageSample(ds.Stories, cfg.SnapshotAt, cfg.FrontPageSample)
	ds.UpcomingAtSnapshot = upcomingSnapshot(ds.Stories, cfg.SnapshotAt)
	ds.TopUsers = topUserList(platform, g, cfg.TopUserListSize)
	ds.rankOf = make(map[digg.UserID]int, len(ds.TopUsers))
	for i, u := range ds.TopUsers {
		ds.rankOf[u] = i + 1
	}
	return ds, nil
}

// RankOf returns u's 1-based position in the top-user list, or 0 if u
// is not on it.
func (d *Dataset) RankOf(u digg.UserID) int { return d.rankOf[u] }

// Assemble builds an analyzable Dataset from externally collected parts
// (e.g. a scrape of a running server). The snapshot samples are
// recovered using the latest observed promotion time as the snapshot
// instant; Platform is left nil because live site state cannot be
// reconstructed from a crawl.
func Assemble(g *graph.Graph, stories []*digg.Story, topUsers []digg.UserID) *Dataset {
	d := &Dataset{Graph: g, Stories: stories, TopUsers: topUsers}
	d.rankOf = make(map[digg.UserID]int, len(topUsers))
	for i, u := range topUsers {
		d.rankOf[u] = i + 1
	}
	var snapshot digg.Minutes
	for _, s := range stories {
		if s.Promoted && s.PromotedAt > snapshot {
			snapshot = s.PromotedAt
		}
	}
	if snapshot > 0 {
		d.FrontPage = frontPageSample(stories, snapshot, len(stories))
		d.UpcomingAtSnapshot = upcomingSnapshot(stories, snapshot)
	}
	return d
}

// FromPlatform snapshots a (possibly live) platform into an analyzable
// Dataset, taking the paper's two samples as of snapshotAt: the
// front-page sample is every story promoted by then and the upcoming
// sample is the queue population at that instant. The caller must hold
// whatever lock excludes platform mutation for the duration of the
// call; the returned dataset copies the story list so later platform
// submissions do not perturb it (individual stories are shared — a
// still-running service can append votes to them).
func FromPlatform(p digg.Store, snapshotAt digg.Minutes, topUserListSize int) *Dataset {
	stories := append([]*digg.Story(nil), p.Stories()...)
	d := &Dataset{Graph: p.SocialGraph(), Stories: stories}
	// Analysis code that needs the concrete platform gets it when the
	// store is the in-memory one.
	d.Platform, _ = p.(*digg.Platform)
	d.FrontPage = frontPageSample(stories, snapshotAt, len(stories))
	d.UpcomingAtSnapshot = upcomingSnapshot(stories, snapshotAt)
	d.TopUsers = topUserList(p, p.SocialGraph(), topUserListSize)
	d.rankOf = make(map[digg.UserID]int, len(d.TopUsers))
	for i, u := range d.TopUsers {
		d.rankOf[u] = i + 1
	}
	return d
}

// frontPageSample returns the n stories most recently promoted at or
// before t, in promotion order (oldest first).
func frontPageSample(stories []*digg.Story, t digg.Minutes, n int) []*digg.Story {
	var promoted []*digg.Story
	for _, s := range stories {
		if s.Promoted && s.PromotedAt <= t {
			promoted = append(promoted, s)
		}
	}
	sortByPromotion(promoted)
	if len(promoted) > n {
		promoted = promoted[len(promoted)-n:]
	}
	return promoted
}

// upcomingSnapshot returns stories that were in the upcoming queue at
// time t: submitted within the preceding day, not promoted by t.
func upcomingSnapshot(stories []*digg.Story, t digg.Minutes) []*digg.Story {
	var out []*digg.Story
	for _, s := range stories {
		if s.SubmittedAt > t || s.SubmittedAt < t-digg.Day {
			continue
		}
		if s.Promoted && s.PromotedAt <= t {
			continue
		}
		out = append(out, s)
	}
	return out
}

// topUserList ranks users by promoted submissions and pads the list to
// size with the most-fanned users not already present.
func topUserList(p digg.Store, g *graph.Graph, size int) []digg.UserID {
	top := p.TopUsers(size)
	if len(top) >= size {
		return top[:size]
	}
	seen := make(map[digg.UserID]bool, size)
	for _, u := range top {
		seen[u] = true
	}
	for _, u := range graph.TopByInDegree(g, g.NumNodes()) {
		if len(top) >= size {
			break
		}
		if !seen[u] {
			top = append(top, u)
			seen[u] = true
		}
	}
	return top
}

func sortMinutes(ts []digg.Minutes) {
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
}

func sortByPromotion(ss []*digg.Story) {
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].PromotedAt != ss[j].PromotedAt {
			return ss[i].PromotedAt < ss[j].PromotedAt
		}
		return ss[i].ID < ss[j].ID
	})
}
