package obs

// timeline.go turns the registry's cumulative instruments into
// trends. A Timeline is a fixed-size ring of periodic snapshots of one
// or more registries (capture cadence is the caller's — cmd/diggd runs
// 1s with ~15min depth); everything derived from it — per-interval
// deltas, rates, interval quantiles, burn-rate windows — is computed
// on read from pairs of adjacent snapshots, so capture stays cheap and
// the hot instrument path is untouched. Capture reads exactly what a
// /metrics scrape reads: histogram atomics and every family's
// collector, run outside the registry mutex.
//
// Snapshots store histograms sparsely (only non-zero cumulative
// buckets), so depth 900 costs a few MB even with every route series
// populated. Counter resets — a fresh data directory replacing an old
// one restarts the process, but a merged window may still straddle
// one in tests or future live-reload setups — are handled the
// Prometheus way: a decrease means the previous value no longer
// applies, and the delta restarts from zero.

import (
	"context"
	"slices"
	"sort"
	"sync"
	"time"
)

// Timeline retains periodic snapshots of its registries and derives
// deltas, rates and burn windows from them.
type Timeline struct {
	interval time.Duration // nominal capture cadence (metadata for consumers)

	mu    sync.Mutex
	regs  []*Registry // captured registries; Include appends
	depth int
	snaps []timelineSnap // ring; grows to depth then wraps
	next  int
	total uint64
}

// timelineSnap is one captured registry state.
type timelineSnap struct {
	at       time.Time
	counters map[string]uint64
	gauges   map[string]uint64
	hists    map[string]histPoint // key: family or family{labels}
}

// histPoint is one histogram series' cumulative state, stored
// sparsely: only non-zero buckets, ascending index.
type histPoint struct {
	sum     uint64
	buckets []sparseBucket
}

type sparseBucket struct {
	idx uint16
	n   uint64
}

// NewTimeline returns a timeline over reg retaining depth snapshots.
// interval is the cadence the caller intends to Capture at; it is
// recorded as metadata (Interval) and used nowhere else, so tests can
// Capture manually at any spacing.
func NewTimeline(reg *Registry, depth int, interval time.Duration) *Timeline {
	if depth < 2 {
		depth = 2
	}
	return &Timeline{regs: []*Registry{reg}, interval: interval, depth: depth}
}

// Include adds reg to the registries every later Capture snapshots.
// It is safe while Run captures.
func (tl *Timeline) Include(reg *Registry) {
	tl.mu.Lock()
	tl.regs = append(tl.regs, reg)
	tl.mu.Unlock()
}

// Interval returns the nominal capture cadence.
func (tl *Timeline) Interval() time.Duration { return tl.interval }

// Len returns the number of snapshots currently retained.
func (tl *Timeline) Len() int {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return len(tl.snaps)
}

// Capture appends one snapshot of the registries taken at now,
// evicting the oldest when the ring is full.
func (tl *Timeline) Capture(now time.Time) {
	tl.mu.Lock()
	regs := tl.regs
	tl.mu.Unlock()
	snap := timelineSnap{
		at:       now,
		counters: make(map[string]uint64),
		gauges:   make(map[string]uint64),
		hists:    make(map[string]histPoint),
	}
	for _, r := range regs {
		snap.capture(r)
	}
	tl.mu.Lock()
	if len(tl.snaps) < tl.depth {
		tl.snaps = append(tl.snaps, snap)
		tl.next = len(tl.snaps) % tl.depth
	} else {
		tl.snaps[tl.next] = snap
		tl.next = (tl.next + 1) % tl.depth
	}
	tl.total++
	tl.mu.Unlock()
}

// Run captures at the timeline's nominal cadence until ctx is done.
func (tl *Timeline) Run(ctx context.Context) {
	t := time.NewTicker(tl.interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-t.C:
			tl.Capture(now)
		}
	}
}

// capture adds every series of r to the snapshot, reading r exactly
// as WritePrometheus does.
func (s *timelineSnap) capture(r *Registry) {
	var hs HistSnapshot
	for _, f := range r.table() {
		for _, h := range f.hists {
			h.Load(&hs)
			s.hists[seriesKey(f.name, h.labels)] = compressHist(&hs)
		}
		if f.collect == nil {
			continue
		}
		values := s.counters
		if f.kind == "gauge" {
			values = s.gauges
		}
		f.collect(func(labels string, v uint64) { values[seriesKey(f.name, labels)] = v })
	}
}

func seriesKey(family, labels string) string {
	if labels == "" {
		return family
	}
	return family + "{" + labels + "}"
}

// SplitSeriesKey undoes seriesKey: "fam{l}" -> ("fam", "l").
func SplitSeriesKey(key string) (family, labels string) {
	for i := 0; i < len(key); i++ {
		if key[i] == '{' {
			return key[:i], key[i+1 : len(key)-1]
		}
	}
	return key, ""
}

func compressHist(s *HistSnapshot) histPoint {
	p := histPoint{sum: s.Sum}
	for i, c := range s.Counts {
		if c != 0 {
			p.buckets = append(p.buckets, sparseBucket{idx: uint16(i), n: c})
		}
	}
	return p
}

// expand decompresses into dst (len numBuckets, caller-zeroed or
// overwritten fully here).
func (p histPoint) expand(dst []uint64) {
	for i := range dst {
		dst[i] = 0
	}
	for _, b := range p.buckets {
		dst[b.idx] = b.n
	}
}

// ordered returns the retained snapshots oldest-first. Caller holds mu.
func (tl *Timeline) ordered() []timelineSnap {
	out := make([]timelineSnap, 0, len(tl.snaps))
	if len(tl.snaps) < tl.depth {
		return append(out, tl.snaps...)
	}
	for i := 0; i < len(tl.snaps); i++ {
		out = append(out, tl.snaps[(tl.next+i)%len(tl.snaps)])
	}
	return out
}

// TimelineSeries is one instrument's derived trend.
type TimelineSeries struct {
	Name   string
	Labels string
	Kind   string // "counter", "gauge" or "histogram"
	Points []TimelinePoint
}

// TimelinePoint is one derived step: the change between two retained
// snapshots (gauges carry the raw value at the step's end instead).
type TimelinePoint struct {
	At       time.Time     // end of the step
	Interval time.Duration // actual covered wall time
	Value    uint64        // gauges: raw value at At
	Delta    uint64        // counters: value delta; histograms: count delta
	Rate     float64       // Delta per second over Interval
	P50, P99 float64       // histograms: interval quantiles, nanoseconds
	Sum      uint64        // histograms: observed nanoseconds in the step
}

// Dump derives every series' trend over the trailing window, merging
// adjacent capture deltas into steps of roughly the requested width
// (step <= the capture cadence means one point per captured
// interval). Series are sorted by key for stable output.
func (tl *Timeline) Dump(window, step time.Duration) []TimelineSeries {
	tl.mu.Lock()
	snaps := tl.ordered()
	tl.mu.Unlock()
	if len(snaps) < 2 {
		return nil
	}
	snaps = trimWindow(snaps, window)
	if len(snaps) < 2 {
		return nil
	}
	newest := snaps[len(snaps)-1]

	keys := make([]string, 0, len(newest.counters)+len(newest.gauges)+len(newest.hists))
	for k := range newest.counters {
		keys = append(keys, k)
	}
	for k := range newest.gauges {
		keys = append(keys, k)
	}
	for k := range newest.hists {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	bounds := stepBounds(snaps, step)
	out := make([]TimelineSeries, 0, len(keys))
	for _, key := range keys {
		family, labels := SplitSeriesKey(key)
		ts := TimelineSeries{Name: family, Labels: labels}
		switch {
		case containsKey(newest.counters, key):
			ts.Kind = "counter"
			ts.Points = counterPoints(snaps, bounds, key)
		case containsKey(newest.gauges, key):
			ts.Kind = "gauge"
			ts.Points = gaugePoints(snaps, bounds, key)
		default:
			ts.Kind = "histogram"
			ts.Points = histSeriesPoints(snaps, bounds, key)
		}
		out = append(out, ts)
	}
	return out
}

func containsKey(m map[string]uint64, k string) bool {
	_, ok := m[k]
	return ok
}

// trimWindow drops snapshots older than window before the newest.
func trimWindow(snaps []timelineSnap, window time.Duration) []timelineSnap {
	if window <= 0 {
		return snaps
	}
	cutoff := snaps[len(snaps)-1].at.Add(-window)
	lo := 0
	for lo < len(snaps)-1 && snaps[lo].at.Before(cutoff) {
		lo++
	}
	return snaps[lo:]
}

// stepBounds groups the snapshot indices into steps: each step is the
// half-open index range (bounds[i], bounds[i+1]] whose deltas merge
// into one point. Steps are cut so each covers at least the requested
// width of wall time (the last may be shorter).
func stepBounds(snaps []timelineSnap, step time.Duration) []int {
	bounds := []int{0}
	last := 0
	for i := 1; i < len(snaps); i++ {
		if snaps[i].at.Sub(snaps[last].at) >= step || i == len(snaps)-1 {
			bounds = append(bounds, i)
			last = i
		}
	}
	return bounds
}

func counterPoints(snaps []timelineSnap, bounds []int, key string) []TimelinePoint {
	pts := make([]TimelinePoint, 0, len(bounds)-1)
	for b := 1; b < len(bounds); b++ {
		from, to := snaps[bounds[b-1]], snaps[bounds[b]]
		// Sum adjacent deltas so a mid-step counter reset loses only
		// the pre-reset interval, not the whole step.
		var delta uint64
		for i := bounds[b-1] + 1; i <= bounds[b]; i++ {
			delta += counterDelta(snaps[i-1].counters[key], snaps[i].counters[key])
		}
		pts = append(pts, makePoint(from.at, to.at, delta, 0))
	}
	return pts
}

// counterDelta applies Prometheus reset semantics: a decrease means
// the counter restarted and the delta restarts from the new value.
func counterDelta(prev, cur uint64) uint64 {
	if cur >= prev {
		return cur - prev
	}
	return cur
}

func gaugePoints(snaps []timelineSnap, bounds []int, key string) []TimelinePoint {
	pts := make([]TimelinePoint, 0, len(bounds)-1)
	for b := 1; b < len(bounds); b++ {
		from, to := snaps[bounds[b-1]], snaps[bounds[b]]
		pts = append(pts, TimelinePoint{
			At:       to.at,
			Interval: to.at.Sub(from.at),
			Value:    to.gauges[key],
		})
	}
	return pts
}

func histSeriesPoints(snaps []timelineSnap, bounds []int, key string) []TimelinePoint {
	pts := make([]TimelinePoint, 0, len(bounds)-1)
	prev := make([]uint64, numBuckets)
	cur := make([]uint64, numBuckets)
	var merged HistSnapshot
	var delta HistSnapshot
	for b := 1; b < len(bounds); b++ {
		from, to := snaps[bounds[b-1]], snaps[bounds[b]]
		for i := range merged.Counts {
			merged.Counts[i] = 0
		}
		merged.Sum = 0
		// Merge the step's adjacent capture deltas (associative, so a
		// 10s point is exactly the union of its 1s deltas).
		for i := bounds[b-1] + 1; i <= bounds[b]; i++ {
			histDelta(snaps[i-1].hists[key], snaps[i].hists[key], prev, cur, &delta)
			merged.Merge(&delta)
		}
		count := merged.Count()
		p := makePoint(from.at, to.at, count, merged.Sum)
		if count > 0 {
			p.P50 = merged.Quantile(0.50)
			p.P99 = merged.Quantile(0.99)
		}
		pts = append(pts, p)
	}
	return pts
}

func makePoint(from, to time.Time, delta, sum uint64) TimelinePoint {
	p := TimelinePoint{At: to, Interval: to.Sub(from), Delta: delta, Sum: sum}
	if secs := p.Interval.Seconds(); secs > 0 {
		p.Rate = float64(delta) / secs
	}
	return p
}

// histDelta computes cur-prev bucket-wise into out. Any bucket
// decrease means the series reset (process restart, fresh registry):
// the delta restarts from the current cumulative state.
func histDelta(prevP, curP histPoint, prevBuf, curBuf []uint64, out *HistSnapshot) {
	prevP.expand(prevBuf)
	curP.expand(curBuf)
	if cap(out.Counts) < numBuckets {
		out.Counts = make([]uint64, numBuckets)
	}
	out.Counts = out.Counts[:numBuckets]
	reset := curP.sum < prevP.sum
	if !reset {
		for i := range curBuf {
			if curBuf[i] < prevBuf[i] {
				reset = true
				break
			}
		}
	}
	if reset {
		copy(out.Counts, curBuf)
		out.Sum = curP.sum
		return
	}
	for i := range curBuf {
		out.Counts[i] = curBuf[i] - prevBuf[i]
	}
	out.Sum = curP.sum - prevP.sum
}

// WindowDelta merges the series of family that labels selects (every
// series when labels is empty) into one histogram delta over the
// trailing window. covered is the wall time the delta actually spans
// (shorter than window while the ring is still filling). ok is false
// when fewer than two snapshots exist.
func (tl *Timeline) WindowDelta(family string, labels []string, window time.Duration) (delta HistSnapshot, covered time.Duration, ok bool) {
	tl.mu.Lock()
	snaps := tl.ordered()
	tl.mu.Unlock()
	if len(snaps) < 2 {
		return HistSnapshot{}, 0, false
	}
	snaps = trimWindow(snaps, window)
	if len(snaps) < 2 {
		return HistSnapshot{}, 0, false
	}
	prev := make([]uint64, numBuckets)
	cur := make([]uint64, numBuckets)
	var d HistSnapshot
	for key := range snaps[len(snaps)-1].hists {
		fam, lbl := SplitSeriesKey(key)
		if fam != family || (len(labels) > 0 && !slices.Contains(labels, lbl)) {
			continue
		}
		for i := 1; i < len(snaps); i++ {
			histDelta(snaps[i-1].hists[key], snaps[i].hists[key], prev, cur, &d)
			delta.Merge(&d)
		}
	}
	return delta, snaps[len(snaps)-1].at.Sub(snaps[0].at), true
}
