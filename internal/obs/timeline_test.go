package obs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// tick returns a fixed base instant plus n seconds, so timeline tests
// control wall spacing exactly.
func tick(n int) time.Time {
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	return base.Add(time.Duration(n) * time.Second)
}

func findSeries(t *testing.T, dump []TimelineSeries, name, labels string) TimelineSeries {
	t.Helper()
	for _, s := range dump {
		if s.Name == name && s.Labels == labels {
			return s
		}
	}
	t.Fatalf("series %s{%s} not in dump (%d series)", name, labels, len(dump))
	return TimelineSeries{}
}

func TestTimelineCounterDeltaAndRate(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("requests_total", "test")
	tl := NewTimeline(reg, 16, time.Second)

	tl.Capture(tick(0))
	c.Add(10)
	tl.Capture(tick(1))
	c.Add(30)
	tl.Capture(tick(2))

	s := findSeries(t, tl.Dump(time.Minute, time.Second), "requests_total", "")
	if s.Kind != "counter" {
		t.Fatalf("kind = %q, want counter", s.Kind)
	}
	if len(s.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(s.Points))
	}
	if s.Points[0].Delta != 10 || s.Points[1].Delta != 30 {
		t.Fatalf("deltas = %d,%d want 10,30", s.Points[0].Delta, s.Points[1].Delta)
	}
	if s.Points[1].Rate != 30 {
		t.Fatalf("rate = %v, want 30/s", s.Points[1].Rate)
	}
}

func TestTimelineCounterReset(t *testing.T) {
	// Two registries sharing one timeline is the test stand-in for a
	// counter restarting: capture high, then capture a fresh low value.
	reg := NewRegistry()
	c := reg.Counter("requests_total", "test")
	tl := NewTimeline(reg, 16, time.Second)

	c.Add(100)
	tl.Capture(tick(0))
	// Simulate a reset by swapping in a fresh registry state: the
	// timeline only sees values, so overwrite via a new counter.
	tl.regs[0] = NewRegistry()
	c2 := tl.regs[0].Counter("requests_total", "test")
	c2.Add(7)
	tl.Capture(tick(1))

	s := findSeries(t, tl.Dump(time.Minute, time.Second), "requests_total", "")
	// 7 < 100: Prometheus reset semantics — the delta restarts from
	// the post-reset value, never underflows.
	if got := s.Points[0].Delta; got != 7 {
		t.Fatalf("post-reset delta = %d, want 7", got)
	}
}

func TestTimelineGaugePassthrough(t *testing.T) {
	reg := NewRegistry()
	var g uint64
	reg.Collect("view_generation", "gauge", "test", func(emit func(string, uint64)) { emit("", g) })
	tl := NewTimeline(reg, 16, time.Second)

	g = 42
	tl.Capture(tick(0))
	g = 17 // gauges may go down; no delta, no reset semantics
	tl.Capture(tick(1))
	g = 99
	tl.Capture(tick(2))

	s := findSeries(t, tl.Dump(time.Minute, time.Second), "view_generation", "")
	if s.Kind != "gauge" {
		t.Fatalf("kind = %q, want gauge", s.Kind)
	}
	if s.Points[0].Value != 17 || s.Points[1].Value != 99 {
		t.Fatalf("values = %d,%d want 17,99", s.Points[0].Value, s.Points[1].Value)
	}
	if s.Points[0].Delta != 0 || s.Points[0].Rate != 0 {
		t.Fatalf("gauge points must not carry delta/rate: %+v", s.Points[0])
	}
}

// TestCollectorReentersRegistry pins the rule that collectors run
// only after the registry mutex is released: a collector that calls
// back into its own registry must complete inside WritePrometheus and
// Capture instead of deadlocking on mu. It also checks that an
// included registry's labeled collector samples reach the timeline
// with their kind.
func TestCollectorReentersRegistry(t *testing.T) {
	reg := NewRegistry()
	reg.Collect("shard_writes_total", "counter", "test", func(emit func(string, uint64)) {
		c := reg.Counter("collects_total", "test")
		c.Add(1)
		emit(`shard="0"`, c.Value())
	})
	tl := NewTimeline(NewRegistry(), 16, time.Second)
	tl.Include(reg)

	var b bytes.Buffer
	done := make(chan struct{})
	go func() {
		defer close(done)
		reg.WritePrometheus(&b)
		tl.Capture(tick(0))
		tl.Capture(tick(1))
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a collector calling into its registry deadlocked")
	}

	if want := "# TYPE shard_writes_total counter\nshard_writes_total{shard=\"0\"} 1\n"; !strings.Contains(b.String(), want) {
		t.Fatalf("exposition lacks %q:\n%s", want, b.String())
	}
	s := findSeries(t, tl.Dump(time.Minute, time.Second), "shard_writes_total", `shard="0"`)
	if s.Kind != "counter" || s.Points[0].Delta != 1 {
		t.Fatalf("collected series = %+v, want counter with delta 1", s)
	}
	findSeries(t, tl.Dump(time.Minute, time.Second), "collects_total", "")
}

// TestTimelineIncludeWhileCapturing runs Include concurrently with
// Capture, as cmd/diggd attaches a server's registry to a timeline
// whose capture loop is already running.
func TestTimelineIncludeWhileCapturing(t *testing.T) {
	tl := NewTimeline(NewRegistry(), 16, time.Second)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			tl.Capture(tick(i))
		}
	}()
	for i := 0; i < 10; i++ {
		reg := NewRegistry()
		reg.Counter(fmt.Sprintf("n%d_total", i), "test")
		tl.Include(reg)
	}
	wg.Wait()
	tl.Capture(tick(100))
	tl.Capture(tick(101))
	for i := 0; i < 10; i++ {
		findSeries(t, tl.Dump(time.Minute, time.Second), fmt.Sprintf("n%d_total", i), "")
	}
}

func TestTimelineHistogramDeltaAndStepMerge(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", `route="x"`, "test")
	tl := NewTimeline(reg, 64, time.Second)

	tl.Capture(tick(0))
	for i := 0; i < 10; i++ {
		h.Observe(1 * time.Millisecond)
	}
	tl.Capture(tick(1))
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Millisecond)
	}
	tl.Capture(tick(2))

	// step = capture cadence: two points, each its own distribution.
	fine := findSeries(t, tl.Dump(time.Minute, time.Second), "lat_seconds", `route="x"`)
	if len(fine.Points) != 2 {
		t.Fatalf("fine points = %d, want 2", len(fine.Points))
	}
	if fine.Points[0].Delta != 10 || fine.Points[1].Delta != 10 {
		t.Fatalf("fine deltas = %d,%d want 10,10", fine.Points[0].Delta, fine.Points[1].Delta)
	}
	if p50 := fine.Points[0].P50; p50 < 0.75e6 || p50 > 1.25e6 {
		t.Fatalf("first interval p50 = %vns, want ~1ms", p50)
	}
	if p50 := fine.Points[1].P50; p50 < 75e6 || p50 > 125e6 {
		t.Fatalf("second interval p50 = %vns, want ~100ms", p50)
	}

	// step = 2s: the two interval deltas merge into one point whose
	// distribution is exactly their union (merge associativity).
	coarse := findSeries(t, tl.Dump(time.Minute, 2*time.Second), "lat_seconds", `route="x"`)
	if len(coarse.Points) != 1 {
		t.Fatalf("coarse points = %d, want 1", len(coarse.Points))
	}
	p := coarse.Points[0]
	if p.Delta != 20 {
		t.Fatalf("merged delta = %d, want 20", p.Delta)
	}
	// Half the merged observations are 1ms and half 100ms, so p99
	// sits in the 100ms region and p50 at the boundary or below.
	if p.P99 < 75e6 {
		t.Fatalf("merged p99 = %vns, want ~100ms", p.P99)
	}
	if p.Interval != 2*time.Second {
		t.Fatalf("merged interval = %v, want 2s", p.Interval)
	}
	wantSum := fine.Points[0].Sum + fine.Points[1].Sum
	if p.Sum != wantSum {
		t.Fatalf("merged sum = %d, want %d", p.Sum, wantSum)
	}
}

func TestTimelineHistogramReset(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", "", "test")
	tl := NewTimeline(reg, 16, time.Second)

	for i := 0; i < 50; i++ {
		h.Observe(time.Millisecond)
	}
	tl.Capture(tick(0))
	tl.regs[0] = NewRegistry()
	h2 := tl.regs[0].Histogram("lat_seconds", "", "test")
	for i := 0; i < 3; i++ {
		h2.Observe(time.Millisecond)
	}
	tl.Capture(tick(1))

	s := findSeries(t, tl.Dump(time.Minute, time.Second), "lat_seconds", "")
	if got := s.Points[0].Delta; got != 3 {
		t.Fatalf("post-reset hist delta = %d, want 3", got)
	}
}

func TestTimelineRingEviction(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("n_total", "test")
	tl := NewTimeline(reg, 4, time.Second)
	for i := 0; i < 10; i++ {
		c.Add(1)
		tl.Capture(tick(i))
	}
	if tl.Len() != 4 {
		t.Fatalf("len = %d, want depth 4", tl.Len())
	}
	s := findSeries(t, tl.Dump(time.Hour, time.Second), "n_total", "")
	// Only the newest 4 snapshots remain: 3 deltas, newest at tick(9).
	if len(s.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(s.Points))
	}
	if !s.Points[2].At.Equal(tick(9)) {
		t.Fatalf("newest point at %v, want %v", s.Points[2].At, tick(9))
	}
}

func TestTimelineWindowTrim(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("n_total", "test")
	tl := NewTimeline(reg, 64, time.Second)
	for i := 0; i < 20; i++ {
		c.Add(1)
		tl.Capture(tick(i))
	}
	s := findSeries(t, tl.Dump(5*time.Second, time.Second), "n_total", "")
	if len(s.Points) != 5 {
		t.Fatalf("windowed points = %d, want 5", len(s.Points))
	}
}

func TestBurnRateDegradedAndRecovery(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("fresh_seconds", `source="http"`, "test")
	tl := NewTimeline(reg, 4096, time.Second)
	slos := []SLO{{Name: "fresh", Family: "fresh_seconds", Objective: 0.99, Threshold: 100 * time.Millisecond}}
	cfg := BurnConfig{Short: 10 * time.Second, Long: 40 * time.Second, Factor: 14.4}

	// Healthy traffic: everything under threshold.
	n := 0
	for ; n < 30; n++ {
		for i := 0; i < 100; i++ {
			h.Observe(time.Millisecond)
		}
		tl.Capture(tick(n))
	}
	st := tl.EvaluateBurn(slos, cfg)[0]
	if st.Degraded || st.Short.Burn != 0 {
		t.Fatalf("healthy burn: %+v", st)
	}

	// Regression: half the observations blow the threshold. Bad
	// fraction 0.5 against a 1% budget = burn 50 in both windows.
	for end := n + 40; n < end; n++ {
		for i := 0; i < 50; i++ {
			h.Observe(time.Millisecond)
			h.Observe(time.Second)
		}
		tl.Capture(tick(n))
	}
	st = tl.EvaluateBurn(slos, cfg)[0]
	if !st.Degraded {
		t.Fatalf("regression not degraded: short %+v long %+v", st.Short, st.Long)
	}
	if st.Short.Burn < 40 || st.Short.Burn > 60 {
		t.Fatalf("short burn = %v, want ~50", st.Short.Burn)
	}

	// Recovery: the short window drains first and degraded clears even
	// while the long window still remembers the incident.
	for end := n + 15; n < end; n++ {
		for i := 0; i < 100; i++ {
			h.Observe(time.Millisecond)
		}
		tl.Capture(tick(n))
	}
	st = tl.EvaluateBurn(slos, cfg)[0]
	if st.Degraded {
		t.Fatalf("still degraded after recovery: short %+v long %+v", st.Short, st.Long)
	}
	if st.Short.Burn >= 14.4 {
		t.Fatalf("short window did not drain: %+v", st.Short)
	}
	if st.Long.Burn == 0 {
		t.Fatalf("long window forgot the incident too fast: %+v", st.Long)
	}
}

// TestBurnJudgesSelectedSeries pins the SLO series selector: an SLO
// naming label sets judges only those series of its family, and one
// naming none judges them all.
func TestBurnJudgesSelectedSeries(t *testing.T) {
	reg := NewRegistry()
	read := reg.Histogram("req_seconds", `route="read"`, "test")
	write := reg.Histogram("req_seconds", `route="write"`, "test")
	other := reg.Histogram("req_seconds", `route="other"`, "test")
	tl := NewTimeline(reg, 16, time.Second)
	tl.Capture(tick(0))
	for i := 0; i < 90; i++ {
		read.Observe(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		write.Observe(time.Second)
		other.Observe(time.Millisecond)
	}
	tl.Capture(tick(1))

	slo := SLO{Name: "read", Family: "req_seconds", Labels: []string{`route="read"`, `route="other"`},
		Objective: 0.99, Threshold: 10 * time.Millisecond}
	if w := tl.Measure(slo, time.Minute); w.Total != 100 || w.Bad != 0 || w.Burn != 0 {
		t.Fatalf("selected series: %+v, want 100 observations and none bad", w)
	}
	slo.Labels = nil
	if w := tl.Measure(slo, time.Minute); w.Total != 110 || w.Bad != 10 {
		t.Fatalf("whole family: %+v, want 110 observations and 10 bad", w)
	}
}

func TestBurnZeroTraffic(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("fresh_seconds", "", "test")
	tl := NewTimeline(reg, 16, time.Second)
	for i := 0; i < 5; i++ {
		tl.Capture(tick(i))
	}
	st := tl.EvaluateBurn([]SLO{{Name: "fresh", Family: "fresh_seconds", Objective: 0.99, Threshold: time.Millisecond}}, BurnConfig{})[0]
	if st.Degraded || st.Short.Burn != 0 || st.Long.Burn != 0 {
		t.Fatalf("zero traffic must not burn: %+v", st)
	}
}

func TestParseTraceID(t *testing.T) {
	id := NewTraceID()
	got, ok := ParseTraceID(TraceIDString(id))
	if !ok || got != id {
		t.Fatalf("round trip: got %x ok=%v, want %x", got, ok, id)
	}
	for _, bad := range []string{"", "abc", "ABCDEF0123456789", "0123456789abcdeg", "0123456789abcdef0"} {
		if _, ok := ParseTraceID(bad); ok {
			t.Fatalf("ParseTraceID(%q) accepted", bad)
		}
	}
}
