package live

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"diggsim/internal/agent"
	"diggsim/internal/dataset"
	"diggsim/internal/digg"
	"diggsim/internal/graph"
	"diggsim/internal/obs"
	"diggsim/internal/rng"
)

// histStep times each state-changing StepTo: the whole write-locked
// section plus the snapshot republish — the window during which the
// serving layer's locked reads (story details newer than the snapshot,
// detail-cache fills) queue behind the writer. A tick whose step
// duration approaches the tick interval is the simulation falling
// behind.
var histStep = obs.Default.Histogram("diggsim_live_step_seconds", "",
	"Live simulation step duration (write-locked apply plus snapshot republish).")

// histStepFresh is the simulation's write→front-page-visible span:
// from the step's first write beginning to the rebuilt snapshot being
// published (afterStep). Together with source="http" (external
// writes) it makes every write path on the node answer "how stale is
// the front page?" with one family.
var histStepFresh = obs.Default.Histogram(obs.FreshnessFrontpageFamily, `source="step"`,
	"Write accepted to republished front-page snapshot visible, by write source.")

// Config parameterizes a live service. The zero value of every field
// falls back to a sensible default in NewService.
type Config struct {
	// Speedup is how many simulation minutes elapse per wall-clock
	// minute (default 600: a sim-day every 2.4 wall-minutes).
	Speedup float64
	// SubmissionsPerHour is the mean Poisson rate of new story
	// submissions per simulation hour (default 60).
	SubmissionsPerHour float64
	// Tick is the wall-clock stepping interval (default 200ms). Each
	// tick advances the simulation to the clock-mapped sim time.
	Tick time.Duration
	// Seed drives submitter/interest draws and every live story's vote
	// stream (default 1).
	Seed uint64
	// StartAt is the simulation minute the service starts from —
	// typically the pregenerated corpus's snapshot instant so the live
	// run continues the corpus's timeline.
	StartAt digg.Minutes
	// Agent is the behaviour model (agent.NewConfig() when zero).
	Agent agent.Config
	// SubmitterZipfS is the Zipf exponent of submitter activity over
	// users ranked by fan count (default 0.7, the corpus calibration).
	SubmitterZipfS float64
	// InterestExponent shapes intrinsic interest, U(0,1)^exponent
	// (default 3, the corpus calibration).
	InterestExponent float64
	// SubscriberBuffer is the capacity of the shared broadcast ring
	// events fan out through (DefaultBusCapacity when zero): how far
	// the slowest subscriber may fall behind before it loses events.
	SubscriberBuffer int
	// TopUserListSize bounds the reputation list in exported datasets
	// (default 1020, the paper's snapshot size).
	TopUserListSize int
}

func (c Config) withDefaults() Config {
	if c.Speedup <= 0 {
		c.Speedup = 600
	}
	if c.SubmissionsPerHour <= 0 {
		c.SubmissionsPerHour = 60
	}
	if c.Tick <= 0 {
		c.Tick = 200 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Agent == (agent.Config{}) {
		c.Agent = agent.NewConfig()
	}
	if c.SubmitterZipfS <= 0 {
		c.SubmitterZipfS = 0.7
	}
	if c.InterestExponent <= 0 {
		c.InterestExponent = 3
	}
	if c.TopUserListSize <= 0 {
		c.TopUserListSize = 1020
	}
	return c
}

// Service drives a digg.Platform in real time: wall-clock ticks map to
// simulation minutes through a Clock, due story submissions arrive as
// a Poisson process over the calibrated submitter mix, and an
// agent.Stepper advances every live story's pending votes up to the
// current sim minute. All platform mutation happens under the
// service's RWMutex, which the HTTP serving layer shares (read
// handlers take the read lock), so heavy concurrent scraping proceeds
// against a site that is genuinely changing underneath it.
type Service struct {
	cfg Config
	bus *Bus

	// mu guards the platform, stepper and submission sampler. HTTP
	// read handlers share it through Locker().
	mu       sync.RWMutex
	platform digg.Store
	stepper  *agent.Stepper
	rng      *rng.RNG
	zipf     *rng.Zipf
	byFans   []digg.UserID
	// nextArrival is the continuous sim-time of the next scheduled
	// submission.
	nextArrival float64
	// scratch collects engine vote events each step, reused across
	// steps.
	scratch []agent.VoteEvent

	simNow     atomic.Int64
	submits    atomic.Uint64
	diggs      atomic.Uint64
	promotions atomic.Uint64
	// Atomic mirrors of the platform/stepper gauges, refreshed at the
	// end of every step so Stats never needs the platform lock.
	totalStories    atomic.Int64
	promotedStories atomic.Int64
	activeStories   atomic.Int64

	// afterStep, when set, runs after every state-changing StepTo with
	// the platform lock released — the serving layer's hook for
	// republishing its lock-free read snapshot.
	afterStep func()
}

// NewService wraps a digg.Store carrying a pregenerated corpus (a
// *digg.Platform, or the shard.Store a durable node serves) in a live
// service. The store must not be mutated by anyone else except through
// the service's lock.
func NewService(p digg.Store, cfg Config) (*Service, error) {
	if p == nil {
		return nil, errors.New("live: nil platform")
	}
	cfg = cfg.withDefaults()
	if err := cfg.Agent.Validate(); err != nil {
		return nil, err
	}
	r := rng.New(cfg.Seed)
	stepper, err := agent.NewStepper(p, cfg.Agent, r.Split())
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg:      cfg,
		bus:      NewBus(cfg.SubscriberBuffer),
		platform: p,
		stepper:  stepper,
		rng:      r,
		byFans:   graph.TopByInDegree(p.SocialGraph(), p.SocialGraph().NumNodes()),
	}
	s.zipf = rng.NewZipf(r, len(s.byFans), cfg.SubmitterZipfS)
	s.nextArrival = float64(cfg.StartAt) + r.ExpGap(cfg.SubmissionsPerHour/60)
	s.simNow.Store(int64(cfg.StartAt))
	s.totalStories.Store(int64(p.NumStories()))
	s.promotedStories.Store(int64(p.PromotedCount()))
	s.activeStories.Store(int64(stepper.Active()))
	return s, nil
}

// SetAfterStep registers a hook invoked after every state-changing
// StepTo, once the platform lock has been released. The serving layer
// uses it to republish its read snapshot. Call before Run.
func (s *Service) SetAfterStep(fn func()) { s.afterStep = fn }

// Locker exposes the platform lock so the HTTP serving layer can
// interleave read handlers (read lock) with the simulation writer
// (write lock).
func (s *Service) Locker() *sync.RWMutex { return &s.mu }

// Bus returns the event bus for subscribing to the live stream.
func (s *Service) Bus() *Bus { return s.bus }

// Now returns the current simulation minute. It is lock-free, so
// handlers may call it while holding either side of the lock.
func (s *Service) Now() digg.Minutes { return digg.Minutes(s.simNow.Load()) }

// Run drives the service until ctx is cancelled, anchoring the sim
// clock at the current wall time, then stepping on the configured
// tick. It returns nil on cancellation and the first stepping error
// otherwise.
func (s *Service) Run(ctx context.Context) error {
	clock := NewClock(time.Now(), s.cfg.StartAt, s.cfg.Speedup)
	ticker := time.NewTicker(s.cfg.Tick)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case now := <-ticker.C:
			if err := s.StepTo(clock.Now(now)); err != nil {
				return err
			}
		}
	}
}

// StepTo advances the simulation to simNow: due submissions are
// injected (Poisson arrivals over the Zipf submitter mix), then every
// pending engine event at or before simNow lands on the platform.
// Events are published to the bus after the platform lock is released,
// so subscribers never delay readers or the writer. StepTo is the
// deterministic test seam — Run merely calls it on a ticker — and is
// a no-op when simNow is not ahead of the current sim time.
//
// The step's whole command burst — submissions, votes, compactions —
// is bracketed in one store batch, so on a durable store a tick costs
// one write-ahead append and one fsync per shard it touched, no matter
// how many votes land in it.
func (s *Service) StepTo(simNow digg.Minutes) error {
	if simNow <= s.Now() {
		return nil
	}
	var out []Event

	stepStart := time.Now()
	s.mu.Lock()
	s.platform.BeginBatch()
	err := s.stepLocked(simNow, &out)
	if berr := s.platform.EndBatch(); err == nil {
		err = berr
	}
	s.mu.Unlock()

	if s.afterStep != nil {
		s.afterStep()
		// Only a republishing step makes writes visible; without
		// afterStep there is no front page to be fresh on.
		if len(out) > 0 {
			histStepFresh.Observe(time.Since(stepStart))
		}
	}
	histStep.Observe(time.Since(stepStart))
	for _, ev := range out {
		s.bus.Publish(ev)
	}
	return err
}

// stepLocked is StepTo's body; the caller holds the write lock (and
// the durability batch, if any) around it.
func (s *Service) stepLocked(simNow digg.Minutes, outp *[]Event) error {
	out := *outp
	defer func() { *outp = out }()
	rate := s.cfg.SubmissionsPerHour / 60
	for s.nextArrival <= float64(simNow) {
		at := digg.Minutes(s.nextArrival)
		submitter := s.byFans[s.zipf.Draw()-1]
		interest := math.Pow(s.rng.Float64(), s.cfg.InterestExponent)
		title := fmt.Sprintf("live-story-%d", s.platform.NumStories())
		st, err := s.stepper.StartStory(submitter, title, interest, at)
		if err != nil {
			return err
		}
		s.submits.Add(1)
		out = append(out, Event{
			Type: EventSubmit, At: int64(at), Story: st.ID,
			User: submitter, Title: st.Title, Votes: 1,
		})
		s.nextArrival += s.rng.ExpGap(rate)
	}

	s.scratch = s.scratch[:0]
	err := s.stepper.Advance(simNow, &s.scratch)
	for _, ve := range s.scratch {
		s.diggs.Add(1)
		out = append(out, Event{
			Type: EventDigg, At: int64(ve.At), Story: ve.Story,
			User: ve.Voter, InNetwork: ve.InNetwork, Votes: ve.VoteCount,
		})
		if !ve.Promoted {
			continue
		}
		s.promotions.Add(1)
		st, stErr := s.platform.Story(ve.Story)
		if stErr != nil {
			continue // unreachable: the vote just landed on it
		}
		out = append(out, Event{
			Type: EventPromote, At: int64(ve.At), Story: st.ID,
			User: st.Submitter, Title: st.Title, Votes: ve.VoteCount,
		})
		out = append(out, Event{
			Type: EventRankChange, At: int64(ve.At), Story: st.ID,
			User: st.Submitter, Rank: s.platform.UserRank(st.Submitter),
		})
	}
	s.simNow.Store(int64(simNow))
	s.totalStories.Store(int64(s.platform.NumStories()))
	s.promotedStories.Store(int64(s.platform.PromotedCount()))
	s.activeStories.Store(int64(s.stepper.Active()))
	return err
}

// Stats snapshots the service counters. It is entirely lock-free: the
// platform gauges are atomic mirrors refreshed each step, so /v1/stats
// scrapes never contend with the simulation writer or readers.
func (s *Service) Stats() Stats {
	bs := s.bus.Stats()
	return Stats{
		SimNow:             s.simNow.Load(),
		Speedup:            s.cfg.Speedup,
		ActiveStories:      int(s.activeStories.Load()),
		TotalStories:       int(s.totalStories.Load()),
		PromotedStories:    int(s.promotedStories.Load()),
		Submits:            s.submits.Load(),
		Diggs:              s.diggs.Load(),
		Promotions:         s.promotions.Load(),
		Subscribers:        bs.Subscribers,
		EventsPublished:    bs.Published,
		EventsDropped:      bs.Dropped,
		MaxSubscriberQueue: bs.MaxQueued,
	}
}

// Export flushes the live run to an analyzable dataset, snapshotting
// the front-page and upcoming-queue samples as of the current sim
// minute — the graceful-shutdown hook that turns a live session into
// the same artifact a batch generation or a scrape produces.
func (s *Service) Export() *dataset.Dataset {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return dataset.FromPlatform(s.platform, s.Now(), s.cfg.TopUserListSize)
}
