package apiv1

// timeline.go defines the wire shapes of GET /debug/timeline: the
// metrics timeline (periodic registry snapshots reduced to per-step
// deltas, rates and interval quantiles) plus the burn-rate evaluation
// of every configured SLO. It is a debugging surface, so durations
// are milliseconds and window widths seconds.

// TimelineDump is the GET /debug/timeline response.
type TimelineDump struct {
	// WindowSeconds and StepSeconds echo the (clamped) query
	// parameters the dump was derived with.
	WindowSeconds float64 `json:"window_seconds"`
	StepSeconds   float64 `json:"step_seconds"`
	// IntervalSeconds is the capture cadence — the finest step the
	// timeline can resolve.
	IntervalSeconds float64 `json:"interval_seconds"`
	// Series is every instrument's trend over the window, sorted by
	// family then labels.
	Series []TimelineSeries `json:"series"`
	// Burn is the burn-rate evaluation of each SLO: over the
	// evaluator's own short and long windows, and over the query's
	// window.
	Burn []BurnStatus `json:"burn,omitempty"`
}

// TimelineSeries is one instrument's trend: a point per step.
type TimelineSeries struct {
	Name   string `json:"name"`
	Labels string `json:"labels,omitempty"`
	// Kind is "counter", "gauge" or "histogram" and selects which
	// point fields are meaningful.
	Kind   string          `json:"kind"`
	Points []TimelinePoint `json:"points"`
}

// TimelinePoint is one derived step of a series.
type TimelinePoint struct {
	// AtUnixMillis is the wall-clock end of the step.
	AtUnixMillis int64 `json:"at_unix_ms"`
	// IntervalSeconds is the wall time the step actually covers.
	IntervalSeconds float64 `json:"interval_seconds"`
	// Value is a gauge's raw value at the step's end.
	Value uint64 `json:"value,omitempty"`
	// Delta is a counter's increase (histograms: observation count)
	// over the step; Rate is Delta per second.
	Delta uint64  `json:"delta,omitempty"`
	Rate  float64 `json:"rate,omitempty"`
	// P50Millis/P99Millis are a histogram's interval quantiles —
	// quantiles of only the observations that landed in this step.
	P50Millis float64 `json:"p50_ms,omitempty"`
	P99Millis float64 `json:"p99_ms,omitempty"`
	// SumMillis is the histogram time observed in the step.
	SumMillis float64 `json:"sum_ms,omitempty"`
}

// BurnStatus is one SLO's multi-window burn-rate evaluation.
type BurnStatus struct {
	// Name is the SLO's stable identifier (e.g. "frontpage_freshness");
	// Family is the histogram family it evaluates.
	Name   string `json:"name"`
	Family string `json:"family"`
	// Objective is the good fraction promised (e.g. 0.99);
	// ThresholdMillis is the latency below which an observation is good.
	Objective       float64 `json:"objective"`
	ThresholdMillis float64 `json:"threshold_ms"`
	// Short and Long are the fast- and slow-window measurements;
	// Degraded is set when both burn at or above the alert factor.
	Short BurnWindow `json:"short"`
	Long  BurnWindow `json:"long"`
	// Window measures the SLO over the query's window (added in v2.3),
	// so a client can judge the span it drove traffic in.
	Window   BurnWindow `json:"window"`
	Degraded bool       `json:"degraded"`
}

// BurnWindow is one window's burn measurement.
type BurnWindow struct {
	// WindowSeconds is the requested width; CoveredSeconds is the wall
	// time the retained snapshots actually span (shorter after boot).
	WindowSeconds  float64 `json:"window_seconds"`
	CoveredSeconds float64 `json:"covered_seconds"`
	// Total counts observations in the window, Bad those at or above
	// the threshold. Burn is the bad fraction divided by the error
	// budget (1 - objective): 1.0 means burning budget exactly at the
	// sustainable rate.
	Total uint64  `json:"total"`
	Bad   uint64  `json:"bad"`
	Burn  float64 `json:"burn"`
}
