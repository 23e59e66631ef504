package obs

// burn.go is the multi-window SLO burn-rate evaluator over a
// Timeline. An SLO says "objective of the observations in its series
// stay under threshold"; the error budget is 1-objective. The burn
// rate of a window is (bad fraction in the window) / (error budget):
// burn 1.0 consumes the budget exactly at the sustainable rate, burn
// 14.4 over 5 minutes is the classic page-worthy signal (2% of a
// 30-day budget in an hour). Requiring BOTH a short and a long
// window to burn filters blips: the short window arms fast, the long
// window proves it is sustained — and makes the signal reset quickly
// once the regression stops feeding the short window.
//
// Bad counts come from bucket deltas: a bucket counts as bad when its
// lower bound is at or above the threshold, so an estimate never
// blames the straddling bucket (<= 25% optimistic at the boundary,
// consistent with the histogram's relative-error contract). Zero
// traffic burns nothing.

import "time"

// SLO is one latency objective over a histogram family: Objective of
// the observations in the judged series should complete under
// Threshold.
type SLO struct {
	Name   string // short stable identifier, e.g. "frontpage_freshness"
	Family string // histogram family
	// Labels selects the judged series by their label text, as
	// Registry.Histogram takes it (e.g. `route="frontpage"`); the
	// selected series merge. Empty judges every series of Family.
	Labels    []string
	Objective float64       // e.g. 0.99
	Threshold time.Duration // good when below
}

// BurnConfig sets the evaluation windows and the degrade factor.
type BurnConfig struct {
	Short  time.Duration // default 5m
	Long   time.Duration // default 1h (clamped to timeline depth)
	Factor float64       // default 14.4; degraded when both windows burn at or above it
}

// DefaultBurnConfig is the classic fast-burn pair.
var DefaultBurnConfig = BurnConfig{Short: 5 * time.Minute, Long: time.Hour, Factor: 14.4}

func (c BurnConfig) withDefaults() BurnConfig {
	d := DefaultBurnConfig
	if c.Short > 0 {
		d.Short = c.Short
	}
	if c.Long > 0 {
		d.Long = c.Long
	}
	if c.Factor > 0 {
		d.Factor = c.Factor
	}
	return d
}

// BurnWindow is one window's measurement.
type BurnWindow struct {
	Window  time.Duration // requested width
	Covered time.Duration // wall time actually spanned by retained snapshots
	Total   uint64        // observations in the window
	Bad     uint64        // observations at or above the threshold
	Burn    float64       // bad fraction / error budget
}

// BurnStatus is one SLO's evaluation.
type BurnStatus struct {
	SLO      SLO
	Short    BurnWindow
	Long     BurnWindow
	Degraded bool
}

// EvaluateBurn measures every SLO against the timeline.
func (tl *Timeline) EvaluateBurn(slos []SLO, cfg BurnConfig) []BurnStatus {
	cfg = cfg.withDefaults()
	out := make([]BurnStatus, 0, len(slos))
	for _, slo := range slos {
		st := BurnStatus{
			SLO:   slo,
			Short: tl.Measure(slo, cfg.Short),
			Long:  tl.Measure(slo, cfg.Long),
		}
		st.Degraded = st.Short.Burn >= cfg.Factor && st.Long.Burn >= cfg.Factor
		out = append(out, st)
	}
	return out
}

// Measure evaluates one SLO over the trailing window: the
// observations its series took, how many were bad, and the burn rate.
func (tl *Timeline) Measure(slo SLO, window time.Duration) BurnWindow {
	w := BurnWindow{Window: window}
	delta, covered, ok := tl.WindowDelta(slo.Family, slo.Labels, window)
	if !ok {
		return w
	}
	w.Covered = covered
	w.Total = delta.Count()
	w.Bad = countAtOrAbove(&delta, slo.Threshold)
	if budget := 1 - slo.Objective; w.Total > 0 && budget > 0 {
		w.Burn = (float64(w.Bad) / float64(w.Total)) / budget
	}
	return w
}

// countAtOrAbove sums buckets whose lower bound is >= threshold.
func countAtOrAbove(s *HistSnapshot, threshold time.Duration) uint64 {
	t := uint64(0)
	if threshold > 0 {
		t = uint64(threshold)
	}
	var bad uint64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if lower, _ := BucketBounds(i); lower >= t {
			bad += c
		}
	}
	return bad
}
