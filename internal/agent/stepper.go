package agent

// stepper.go is the live-mode front-end to the event engine. Where
// Simulator.RunStory simulates a story's whole lifetime in one call,
// a Stepper keeps many stories live at once and advances each of them
// only up to a sim-time deadline, so a real-time service can interleave
// simulated activity with wall-clock ticks and concurrent HTTP traffic
// (under the service's lock).

import (
	"errors"

	"diggsim/internal/digg"
	"diggsim/internal/rng"
)

// Stepper drives multiple concurrently-live stories against a shared
// digg.Platform, advancing pending exposures and discovery votes up to
// a deadline. Votes flow through Platform.Digg, so promotion and
// visibility stay authoritative, and external votes (e.g. HTTP POSTs
// against the same platform) interleave safely between Advance calls.
//
// Each live story owns a dedicated engine (scratch buffers plus an RNG
// stream split off the stepper's), so stepping one story never
// perturbs another. A Stepper is not safe for concurrent use; the live
// service serializes access with the lock it shares with the HTTP
// read path.
type Stepper struct {
	cfg      Config
	platform digg.Store
	rng      *rng.RNG
	runs     []*stepRun
	// free pools retired engines for reuse: a live engine's scratch is
	// O(users + horizon) (dense sets, timing wheel), so at a steady
	// submission rate pooling removes per-story allocation churn the
	// same way the corpus path reuses one engine per worker. The RNG
	// stream is NOT pooled — every story splits a fresh stream in
	// StartStory order, so which pooled buffers a story lands on can
	// never change its vote history.
	free []*engine
}

// stepRun is one live story's stepping state.
type stepRun struct {
	eng *engine
	st  *digg.Story
	// promotedSeen mirrors st.Promoted as of the end of the last
	// Advance, so promotions caused by external votes between steps can
	// be detected and the discovery sampler rebased onto the front-page
	// rate.
	promotedSeen bool
}

// NewStepper creates a stepper over any digg.Store: an in-memory
// *digg.Platform or a shard.Store. It returns an error if the
// configuration is invalid.
func NewStepper(p digg.Store, cfg Config, r *rng.RNG) (*Stepper, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if r == nil {
		return nil, errors.New("agent: Stepper requires an RNG")
	}
	return &Stepper{cfg: cfg, platform: p, rng: r}, nil
}

// StartStory submits a story through the platform at time at and
// registers it for live stepping. The submitter's implicit vote is
// recorded immediately; subsequent votes land on later Advance calls.
func (s *Stepper) StartStory(submitter digg.UserID, title string, interest float64, at digg.Minutes) (*digg.Story, error) {
	if interest < 0 || interest > 1 {
		return nil, errors.New("agent: interest must be in [0, 1]")
	}
	st, err := s.platform.Submit(submitter, title, interest, at)
	if err != nil {
		return nil, err
	}
	var eng *engine
	if k := len(s.free); k > 0 {
		eng = s.free[k-1]
		s.free[k-1] = nil
		s.free = s.free[:k-1]
		eng.rng = s.rng.Split()
	} else {
		eng = newEngine(s.platform.SocialGraph(), s.cfg, s.rng.Split())
	}
	eng.begin(st, interest)
	s.runs = append(s.runs, &stepRun{eng: eng, st: st})
	return st, nil
}

// Advance processes every pending event at or before now, appending
// one VoteEvent per vote to events when non-nil. Stories are advanced
// one at a time in submission order, each in strict per-story event
// order; promotions of different stories landing inside the same
// Advance window may therefore enter the front page slightly out of
// global time order (bounded by the step size). Stories whose
// lifetimes complete are retired and their live platform bookkeeping
// compacted — exactly like corpus generation — so long-running live
// services hold per-story state only for stories still in play.
func (s *Stepper) Advance(now digg.Minutes, events *[]VoteEvent) error {
	kept := s.runs[:0]
	var firstErr error
	for _, run := range s.runs {
		if firstErr != nil {
			kept = append(kept, run)
			continue
		}
		if run.st.Promoted && !run.promotedSeen {
			// An external vote promoted the story since the last step:
			// rebase the discovery sampler onto the decaying front-page
			// rate from the promotion minute.
			run.eng.nextDisc = run.eng.nextDiscovery(run.st, run.eng.interest,
				float64(run.st.PromotedAt), float64(run.eng.deadline))
		}
		done, err := run.eng.stepUntil(run.st, platformSink{p: s.platform, st: run.st}, now, events)
		if err != nil {
			firstErr = err
			kept = append(kept, run)
			continue
		}
		run.promotedSeen = run.st.Promoted
		if done {
			run.eng.endStory()
			s.free = append(s.free, run.eng)
			// Compaction keeps live memory bounded; later HTTP diggs on
			// the retired story report ErrStoryCompacted (410 over the
			// API), like a story scrolled out of play.
			if err := s.platform.CompactStory(run.st.ID); err != nil {
				firstErr = err
			}
			continue
		}
		kept = append(kept, run)
	}
	// Zero the tail so retired runs do not pin their engines.
	for i := len(kept); i < len(s.runs); i++ {
		s.runs[i] = nil
	}
	s.runs = kept
	return firstErr
}

// Active returns the number of stories still being stepped.
func (s *Stepper) Active() int { return len(s.runs) }
