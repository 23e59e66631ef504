// Package load is the closed-loop load harness: open-loop workload
// drivers for the four client populations a real social-news site
// sees — Zipf-skewed readers, cursor crawlers, batch vote/submit
// writers, and SSE subscriber swarms — run as one mixed scenario
// against a live diggd, measured through internal/obs histograms and
// gated on client-side SLOs and on the server's own SLO table over the
// run window.
//
// The drivers are open-loop and coordinated-omission-safe: operations
// are scheduled on a fixed intended-rate timeline (wrk2-style), and
// each operation's recorded latency is completion minus *intended*
// start, not actual start. A server stall therefore inflates the
// recorded tail — queued operations keep their old intended times —
// instead of silently lowering throughput the way a closed-loop
// driver's request-response lockstep would. See docs/load.md for the
// scenario format and the runbook.
package load

import (
	"time"

	"diggsim/internal/apiv1"
)

// Scenario is one mixed load run: per-population target rates, shared
// duration/ramp, and the SLO thresholds to gate on. The zero value of
// every field falls back to a sensible default in withDefaults; a
// population with rate 0 (or swarm size 0) simply does not run.
type Scenario struct {
	// BaseURL is the diggd server root, e.g. "http://127.0.0.1:8080".
	BaseURL string `json:"base_url"`
	// DurationSeconds is the total run length, ramp included
	// (default 10).
	DurationSeconds float64 `json:"duration_seconds"`
	// RampSeconds linearly ramps each population's rate from zero, so
	// the server warms caches before the measured plateau (default 1).
	RampSeconds float64 `json:"ramp_seconds"`
	// Seed drives every random draw (Zipf ranks, voter picks).
	Seed uint64 `json:"seed"`
	// ZipfS is the popularity-skew exponent readers draw story ranks
	// from (default 0.8, in the range LermanG08 measures for Digg
	// attention skew).
	ZipfS float64 `json:"zipf_s"`

	// ReadRPS targets this many reader ops/sec: a mix of front-page
	// fetches and Zipf-ranked story detail reads.
	ReadRPS float64 `json:"read_rps"`
	// CrawlRPS targets this many crawler pages/sec walking /v1/stories
	// and /v1/frontpage with cursors.
	CrawlRPS float64 `json:"crawl_rps"`
	// WriteRPS targets this many write ops/sec; each op is one batch
	// call (WriteBatch diggs, or a story-submit batch every
	// SubmitEvery-th op).
	WriteRPS float64 `json:"write_rps"`
	// WriteBatch is the diggs per batch write op (default 50).
	WriteBatch int `json:"write_batch"`
	// SubmitEvery makes every Nth write op a batch story submission
	// instead of diggs (default 10; 0 disables submissions).
	SubmitEvery int `json:"submit_every"`

	// FreshnessRPS targets this many freshness probes/sec: each op is
	// one story submission followed by read-path polling until the new
	// story is visible, so the population's latency IS the
	// client-observed write→visible freshness span. Keep the rate low
	// (default 0 = off): every probe adds a story to the corpus.
	FreshnessRPS float64 `json:"freshness_rps"`

	// SwarmSize is how many concurrent SSE subscribers to hold open on
	// GET /v1/stream for the whole run. Bounded by the process fd
	// limit — see docs/load.md for the per-core maximum on this class
	// of machine.
	SwarmSize int `json:"swarm_size"`
	// SwarmConnectRPS is the connection-establishment rate for the
	// swarm ramp (default 500/s).
	SwarmConnectRPS float64 `json:"swarm_connect_rps"`

	// SLO holds the client-side thresholds; zero fields take defaults
	// aligned with docs/observability.md. The run is also gated on the
	// server's own SLOs over the run window.
	SLO SLOConfig `json:"slo"`
}

func (s Scenario) withDefaults() Scenario {
	if s.DurationSeconds <= 0 {
		s.DurationSeconds = 10
	}
	if s.RampSeconds < 0 {
		s.RampSeconds = 0
	} else if s.RampSeconds == 0 {
		s.RampSeconds = 1
	}
	if s.ZipfS <= 0 {
		s.ZipfS = 0.8
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.WriteBatch <= 0 {
		s.WriteBatch = 50
	}
	if s.WriteBatch > apiv1.MaxBatch {
		s.WriteBatch = apiv1.MaxBatch
	}
	if s.SubmitEvery < 0 {
		s.SubmitEvery = 0
	} else if s.SubmitEvery == 0 {
		s.SubmitEvery = 10
	}
	if s.SwarmConnectRPS <= 0 {
		s.SwarmConnectRPS = 500
	}
	s.SLO = s.SLO.withDefaults()
	return s
}

// Duration returns the scenario's measured window as a time.Duration.
func (s Scenario) Duration() time.Duration {
	return time.Duration(s.DurationSeconds * float64(time.Second))
}

// Ramp returns the scenario's ramp as a time.Duration.
func (s Scenario) Ramp() time.Duration {
	return time.Duration(s.RampSeconds * float64(time.Second))
}

// PopulationReport is one population's outcome: achieved rate, outcome
// counts, and intended-start→completion latency quantiles.
type PopulationReport struct {
	Name      string  `json:"name"`
	TargetRPS float64 `json:"target_rps"`
	// AchievedRPS is completed ops over the measured window. Under an
	// open-loop driver this stays near TargetRPS unless the server (or
	// the single-core client) cannot keep up — in which case P99 shows
	// the queueing, which is the point.
	AchievedRPS float64 `json:"achieved_rps"`
	Ops         uint64  `json:"ops"`
	// Errors are transport failures and unexpected API errors.
	Errors uint64 `json:"errors"`
	// Rejections are expected per-item denials (duplicate votes,
	// conflict responses) — application outcomes, not failures.
	Rejections uint64 `json:"rejections,omitempty"`

	P50Millis float64 `json:"p50_ms"`
	P90Millis float64 `json:"p90_ms"`
	P99Millis float64 `json:"p99_ms"`
	MaxMillis float64 `json:"max_ms"`

	// Swarm-only: stream and event accounting.
	Streams       int    `json:"streams,omitempty"`
	Events        uint64 `json:"events,omitempty"`
	LagEvents     uint64 `json:"lag_events,omitempty"`
	DroppedEvents uint64 `json:"dropped_events,omitempty"`
}

// Report is the full scenario outcome diggload serializes into
// BENCH_load.json.
type Report struct {
	Scenario    Scenario           `json:"scenario"`
	Populations []PopulationReport `json:"populations"`
	// Combined is every request-driven population's latency histogram
	// merged into one (obs.HistSnapshot.Merge), for a single
	// all-traffic tail number.
	Combined *PopulationReport `json:"combined,omitempty"`
	// SLOs are the gates: the client gates, then one per server SLO
	// judged over the run window.
	SLOs []SLOResult `json:"slos"`
	// Pass is the scenario verdict: every SLO held.
	Pass bool `json:"pass"`
}

// Population returns the named population's report, or nil.
func (r *Report) Population(name string) *PopulationReport {
	for i := range r.Populations {
		if r.Populations[i].Name == name {
			return &r.Populations[i]
		}
	}
	return nil
}
