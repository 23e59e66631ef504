package load

import (
	"context"
	"fmt"
	"math"
	"time"

	"diggsim/internal/apiv1"
	"diggsim/internal/httpapi"
)

// SLOConfig holds the scenario's client-side pass/fail thresholds.
// Zero fields take the defaults below; a negative field disables that
// gate. They add loopback headroom for SDK and scheduling overhead to
// the suggested SLOs in docs/observability.md. The server-side gates
// are not configured here: they are the server's own SLO table (see
// serverSLOs).
type SLOConfig struct {
	// ReadP99Millis bounds the reader population's client-observed p99
	// (default 50).
	ReadP99Millis float64 `json:"read_p99_ms"`
	// WriteP99Millis bounds the writer population's client-observed
	// p99 (default 250 — each op is a whole write batch).
	WriteP99Millis float64 `json:"write_p99_ms"`
	// FreshnessP99Millis bounds the freshness probe's client-observed
	// write→visible p99 (default 250, mirroring the server-side
	// frontpage_freshness SLO — the probe adds two request RTTs on
	// top, which loopback absorbs).
	FreshnessP99Millis float64 `json:"freshness_p99_ms"`
	// FirstEventP99Millis bounds the swarm's intended-connect→first-
	// event p99 (default 1000; the feed only carries events when the
	// simulation ticks).
	FirstEventP99Millis float64 `json:"first_event_p99_ms"`
	// MaxErrorRatio bounds errors/ops across the request populations
	// (default 0.01).
	MaxErrorRatio float64 `json:"max_error_ratio"`
}

func (c SLOConfig) withDefaults() SLOConfig {
	def := func(v *float64, d float64) {
		if *v == 0 {
			*v = d
		}
	}
	def(&c.ReadP99Millis, 50)
	def(&c.WriteP99Millis, 250)
	def(&c.FreshnessP99Millis, 250)
	def(&c.FirstEventP99Millis, 1000)
	def(&c.MaxErrorRatio, 0.01)
	return c
}

// SLOResult is one gate's verdict.
type SLOResult struct {
	Name      string  `json:"name"`
	Threshold float64 `json:"threshold"`
	Observed  float64 `json:"observed"`
	Pass      bool    `json:"pass"`
	// Skipped marks gates that had nothing to measure (population not
	// run, no timeline on the node, server SLO saw no traffic); a
	// skipped gate does not fail the scenario but is reported so
	// silence is visible.
	Skipped bool   `json:"skipped,omitempty"`
	Detail  string `json:"detail,omitempty"`
}

// evaluateSLOs fills in rep.SLOs and rep.Pass: the client gates from
// the populations, then the server gates.
func evaluateSLOs(rep *Report, cfg SLOConfig, server []SLOResult) {
	var results []SLOResult
	gate := func(name string, threshold, observed float64, detail string, measured bool) {
		if threshold < 0 {
			return // explicitly disabled
		}
		r := SLOResult{Name: name, Threshold: threshold, Observed: observed, Detail: detail}
		if !measured {
			r.Skipped = true
			r.Pass = true
		} else {
			r.Pass = observed <= threshold
		}
		results = append(results, r)
	}

	read := rep.Population("read")
	gate("read_p99_ms", cfg.ReadP99Millis, popP99(read), "client-observed reader latency", read != nil && read.Ops > 0)
	write := rep.Population("write")
	gate("write_p99_ms", cfg.WriteP99Millis, popP99(write), "client-observed batch-write latency", write != nil && write.Ops > 0)
	fresh := rep.Population("freshness")
	gate("freshness_p99_ms", cfg.FreshnessP99Millis, popP99(fresh), "client-observed submit to read-path visibility", fresh != nil && fresh.Ops > 0)
	swarm := rep.Population("swarm")
	gate("first_event_p99_ms", cfg.FirstEventP99Millis, popP99(swarm), "intended-connect to first SSE event", swarm != nil && swarm.Ops > 0)

	var ops, errs uint64
	for _, p := range rep.Populations {
		if p.Name == "swarm" {
			continue
		}
		ops += p.Ops
		errs += p.Errors
	}
	ratio := 0.0
	if ops > 0 {
		ratio = float64(errs) / float64(ops)
	}
	gate("max_error_ratio", cfg.MaxErrorRatio, ratio,
		fmt.Sprintf("%d errors / %d ops across request populations", errs, ops), ops > 0)

	rep.SLOs = append(results, server...)
	rep.Pass = true
	for _, r := range rep.SLOs {
		if !r.Pass {
			rep.Pass = false
		}
	}
}

func popP99(p *PopulationReport) float64 {
	if p == nil {
		return 0
	}
	return p.P99Millis
}

// serverSLOs judges the run by the server's own SLO table, the one
// its /readyz burns on. interval is the node's timeline capture
// cadence, or probeErr why the node has none. It waits one interval,
// so the timeline holds a capture past the run's end, then reads
// every SLO measured over the run's length plus that interval
// (serverGates): the window ends at the capture past the run, so only
// a window one interval longer than the run reaches back to a capture
// taken before the run began. A node without a timeline has its
// default SLOs reported as skipped.
func serverSLOs(ctx context.Context, c *httpapi.Client, interval, run time.Duration, probeErr error) []SLOResult {
	err := probeErr
	var dump apiv1.TimelineDump
	if err == nil {
		select {
		case <-ctx.Done():
			err = ctx.Err()
		case <-time.After(interval):
			dump, err = c.Timeline(ctx, run+interval, run)
		}
	}
	if err != nil {
		var gates []SLOResult
		for _, slo := range httpapi.DefaultSLOs() {
			gates = append(gates, SLOResult{Name: slo.Name, Pass: true, Skipped: true,
				Detail: fmt.Sprintf("no server timeline to judge %s by: %v", slo.Family, err)})
		}
		return gates
	}
	return serverGates(dump.Burn)
}

// serverGates turns burn entries into gates named after their SLOs,
// judged over each entry's query window. A gate's observed value is
// the window's bad fraction, by the server's own rule (an observation
// is bad when its histogram bucket lies at or above the SLO
// threshold), and it passes while that is at most the error budget
// 1 - objective. An SLO that saw no traffic is skipped.
func serverGates(burn []apiv1.BurnStatus) []SLOResult {
	gates := make([]SLOResult, 0, len(burn))
	for _, b := range burn {
		w := b.Window
		// Rounded so an objective of 0.99 reads as a budget of 0.01,
		// not 0.010000000000000009.
		r := SLOResult{Name: b.Name, Threshold: math.Round((1-b.Objective)*1e12) / 1e12}
		if w.Total == 0 {
			r.Pass, r.Skipped = true, true
			r.Detail = fmt.Sprintf("no %s observations in the %.0fs window", b.Family, w.WindowSeconds)
		} else {
			r.Observed = float64(w.Bad) / float64(w.Total)
			r.Pass = r.Observed <= r.Threshold
			r.Detail = fmt.Sprintf("%d of %d %s observations at or above %gms over %.1fs",
				w.Bad, w.Total, b.Family, b.ThresholdMillis, w.CoveredSeconds)
		}
		gates = append(gates, r)
	}
	return gates
}
