package httpapi

// timeline.go serves the metrics timeline: GET /debug/timeline renders
// an attached obs.Timeline (periodic registry snapshots) as per-step
// deltas, rates and interval quantiles, plus the burn-rate evaluation
// of every configured SLO. The evaluation also feeds /readyz — a node
// burning error budget fast on both windows reports degraded (503) so
// load balancers drain it before users notice the freshness regression.

import (
	"net/http"
	"time"

	"diggsim/internal/apiv1"
	"diggsim/internal/obs"
)

// Timeline query bounds. The window clamps to what the ring retains
// (Dump trims internally); the step clamps below so a huge window with
// a tiny step cannot render tens of thousands of points.
const (
	defaultTimelineWindow = 5 * time.Minute
	defaultTimelineStep   = 10 * time.Second
	minTimelineStep       = time.Second
)

// readRouteClasses are the route classes of the read endpoints: the
// request-latency series the read_latency SLO judges. Writes, health
// probes and scrapes have latency profiles of their own and stay out
// of it.
var readRouteClasses = []string{"frontpage", "story", "stories", "upcoming", "user", "links", "topusers", "stats"}

// DefaultSLOs returns the burn-rate objectives AttachTimeline applies
// when given none: the two end-to-end freshness spans, the read
// routes' latency and the live simulation's step time. They are the
// one definition of a healthy node: /readyz burns on them and
// diggload gates a run on them.
func DefaultSLOs() []obs.SLO {
	reads := make([]string, len(readRouteClasses))
	for i, class := range readRouteClasses {
		reads[i] = routeLabels(class)
	}
	return []obs.SLO{
		{Name: "frontpage_freshness", Family: obs.FreshnessFrontpageFamily,
			Objective: 0.99, Threshold: 250 * time.Millisecond},
		{Name: "sse_freshness", Family: obs.FreshnessSSEFamily,
			Objective: 0.99, Threshold: time.Second},
		{Name: "read_latency", Family: requestFamily, Labels: reads,
			Objective: 0.99, Threshold: 10 * time.Millisecond},
		// Past the default 200ms tick the simulation falls behind wall
		// time.
		{Name: "live_step", Family: "diggsim_live_step_seconds",
			Objective: 0.99, Threshold: 200 * time.Millisecond},
	}
}

// AttachTimeline connects a metrics timeline: the timeline captures
// the server's own metric families alongside its registry, the server
// serves it on GET /debug/timeline and gates /readyz on the burn-rate
// evaluation of slos (DefaultSLOs when none are given). The caller
// owns the capture loop (Timeline.Run). Call before Handler.
func (s *Server) AttachTimeline(tl *obs.Timeline, slos ...obs.SLO) {
	tl.Include(s.reg)
	s.timeline = tl
	if len(slos) == 0 {
		slos = DefaultSLOs()
	}
	s.slos = slos
}

// burnStatuses evaluates the configured SLOs, or nil without a
// timeline.
func (s *Server) burnStatuses() []obs.BurnStatus {
	if s.timeline == nil {
		return nil
	}
	return s.timeline.EvaluateBurn(s.slos, obs.BurnConfig{})
}

// degradedSLO returns the first SLO burning error budget at alert rate
// on both windows, or "" when healthy.
func (s *Server) degradedSLO() string {
	for _, st := range s.burnStatuses() {
		if st.Degraded {
			return st.SLO.Name
		}
	}
	return ""
}

// handleTimeline serves GET /debug/timeline?window=300&step=10 (both
// seconds): every instrument's trend over the trailing window plus the
// SLO burn evaluation, each SLO also measured over the window.
func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	if s.timeline == nil {
		writeError(w, newAPIError(http.StatusNotFound, apiv1.CodeNotFound, "no timeline attached"))
		return
	}
	window, err := queryIntRaw(r.URL.RawQuery, "window", int(defaultTimelineWindow/time.Second))
	if err != nil || window <= 0 {
		writeError(w, newAPIError(http.StatusBadRequest, apiv1.CodeInvalidArgument,
			"window must be a positive number of seconds"))
		return
	}
	step, err := queryIntRaw(r.URL.RawQuery, "step", int(defaultTimelineStep/time.Second))
	if err != nil || step <= 0 {
		writeError(w, newAPIError(http.StatusBadRequest, apiv1.CodeInvalidArgument,
			"step must be a positive number of seconds"))
		return
	}
	windowD := time.Duration(window) * time.Second
	stepD := time.Duration(step) * time.Second
	if stepD < minTimelineStep {
		stepD = minTimelineStep
	}
	dump := apiv1.TimelineDump{
		WindowSeconds:   windowD.Seconds(),
		StepSeconds:     stepD.Seconds(),
		IntervalSeconds: s.timeline.Interval().Seconds(),
		Series:          timelineSeries(s.timeline.Dump(windowD, stepD)),
		Burn:            s.burnToWire(windowD),
	}
	writeJSON(w, http.StatusOK, dump)
}

// timelineSeries converts obs series to the wire shape (ms units).
func timelineSeries(in []obs.TimelineSeries) []apiv1.TimelineSeries {
	out := make([]apiv1.TimelineSeries, len(in))
	for i, ts := range in {
		ws := apiv1.TimelineSeries{
			Name: ts.Name, Labels: ts.Labels, Kind: ts.Kind,
			Points: make([]apiv1.TimelinePoint, len(ts.Points)),
		}
		for j, p := range ts.Points {
			ws.Points[j] = apiv1.TimelinePoint{
				AtUnixMillis:    p.At.UnixMilli(),
				IntervalSeconds: p.Interval.Seconds(),
				Value:           p.Value,
				Delta:           p.Delta,
				Rate:            p.Rate,
				P50Millis:       p.P50 / 1e6,
				P99Millis:       p.P99 / 1e6,
				SumMillis:       float64(p.Sum) / 1e6,
			}
		}
		out[i] = ws
	}
	return out
}

// burnToWire evaluates the configured SLOs in the wire shape, each
// also measured over window.
func (s *Server) burnToWire(window time.Duration) []apiv1.BurnStatus {
	in := s.burnStatuses()
	if len(in) == 0 {
		return nil
	}
	out := make([]apiv1.BurnStatus, len(in))
	for i, st := range in {
		out[i] = apiv1.BurnStatus{
			Name:            st.SLO.Name,
			Family:          st.SLO.Family,
			Objective:       st.SLO.Objective,
			ThresholdMillis: float64(st.SLO.Threshold) / 1e6,
			Short:           burnWindowToWire(st.Short),
			Long:            burnWindowToWire(st.Long),
			Window:          burnWindowToWire(s.timeline.Measure(st.SLO, window)),
			Degraded:        st.Degraded,
		}
	}
	return out
}

func burnWindowToWire(w obs.BurnWindow) apiv1.BurnWindow {
	return apiv1.BurnWindow{
		WindowSeconds:  w.Window.Seconds(),
		CoveredSeconds: w.Covered.Seconds(),
		Total:          w.Total,
		Bad:            w.Bad,
		Burn:           w.Burn,
	}
}
