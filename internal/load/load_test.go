package load

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"diggsim/internal/apiv1"
	"diggsim/internal/digg"
	"diggsim/internal/graph"
	"diggsim/internal/httpapi"
	"diggsim/internal/live"
	"diggsim/internal/obs"
	"diggsim/internal/rng"
)

func TestPacerSchedule(t *testing.T) {
	p := NewPacer(100, time.Second)
	if got := p.At(0); got != 0 {
		t.Errorf("At(0) = %v", got)
	}
	// The ramp holds rate*ramp/2 = 50 ops and ends exactly at the ramp
	// boundary.
	if got := p.At(50); got != time.Second {
		t.Errorf("At(rampOps) = %v, want 1s", got)
	}
	// Plateau arrivals are evenly spaced at 1/rate.
	for i := uint64(50); i < 60; i++ {
		gap := p.At(i+1) - p.At(i)
		if gap < 9*time.Millisecond || gap > 11*time.Millisecond {
			t.Errorf("plateau gap at %d = %v, want 10ms", i, gap)
		}
	}
	// The schedule is monotonic through the ramp.
	prev := time.Duration(-1)
	for i := uint64(0); i < 100; i++ {
		at := p.At(i)
		if at <= prev {
			t.Fatalf("At(%d) = %v not after At(%d) = %v", i, at, i-1, prev)
		}
		prev = at
	}
}

func TestPacerNoRamp(t *testing.T) {
	p := NewPacer(1000, 0)
	if got := p.At(0); got != 0 {
		t.Errorf("At(0) = %v", got)
	}
	if got := p.At(1000); got != time.Second {
		t.Errorf("At(1000) = %v, want 1s", got)
	}
}

// TestOpenLoopCoordinatedOmission is the harness's reason to exist: a
// single 200ms server stall must inflate the recorded tail across all
// the operations it delayed, not just the one that was slow. A
// closed-loop driver (latency = service time) sees exactly one slow
// op; the open-loop recorder sees the whole queue that built up behind
// it, because intended start times never move.
func TestOpenLoopCoordinatedOmission(t *testing.T) {
	reg := obs.NewRegistry()
	recorded := reg.Histogram("test_recorded_seconds", "", "")
	service := reg.Histogram("test_service_seconds", "", "")

	var n atomic.Uint64
	var cnt counters
	// One worker, so the stall serializes everything behind it —
	// exactly what a stalled single server does to an arrival stream.
	openLoop(context.Background(), NewPacer(500, 0), 500*time.Millisecond, 1,
		recorded, &cnt, func(worker int) opFunc {
			return func(ctx context.Context) opResult {
				start := time.Now()
				if n.Add(1) == 20 {
					time.Sleep(200 * time.Millisecond)
				}
				service.Observe(time.Since(start))
				return opResult{}
			}
		})

	recSnap := recorded.Snapshot()
	svcSnap := service.Snapshot()
	if recSnap.Count() < 100 {
		t.Fatalf("only %d ops recorded", recSnap.Count())
	}
	// Service time: one deliberate stall, everything else instant.
	slowServices := countAbove(&svcSnap, 10*time.Millisecond)
	if slowServices != 1 {
		t.Errorf("service-time samples over 10ms = %d, want exactly 1 (the stall)", slowServices)
	}
	// Recorded (intended-start) latency: the stall delayed ~100 queued
	// arrivals, so the tail must show it broadly.
	recP99 := recSnap.Quantile(0.99) / 1e6 // ms
	if recP99 < 80 {
		t.Errorf("recorded p99 = %.1fms; the stall should inflate it past 80ms", recP99)
	}
	slowRecorded := countAbove(&recSnap, 50*time.Millisecond)
	if slowRecorded < 20 {
		t.Errorf("only %d recorded samples over 50ms; the queue behind the stall should show", slowRecorded)
	}
}

// countAbove counts histogram samples whose bucket lies entirely above
// the threshold.
func countAbove(s *obs.HistSnapshot, d time.Duration) uint64 {
	var n uint64
	for i, c := range s.Counts {
		lower, _ := obs.BucketBounds(i)
		if lower >= uint64(d) {
			n += c
		}
	}
	return n
}

func TestSLOEvaluate(t *testing.T) {
	rep := &Report{
		Populations: []PopulationReport{
			{Name: "read", Ops: 1000, P99Millis: 8},
			{Name: "write", Ops: 100, Errors: 0, P99Millis: 40},
			{Name: "swarm", Ops: 50, P99Millis: 200},
		},
	}
	burn := []apiv1.BurnStatus{
		{Name: "read_latency", Family: "diggsim_http_request_seconds", Objective: 0.99, ThresholdMillis: 10,
			Window: apiv1.BurnWindow{WindowSeconds: 10, CoveredSeconds: 10, Total: 1000, Bad: 10}},
		{Name: "live_step", Family: "diggsim_live_step_seconds", Objective: 0.99, ThresholdMillis: 200,
			Window: apiv1.BurnWindow{WindowSeconds: 10, CoveredSeconds: 10}},
	}
	gate := func(name string) SLOResult {
		t.Helper()
		for _, r := range rep.SLOs {
			if r.Name == name {
				return r
			}
		}
		t.Fatalf("no %s gate in %+v", name, rep.SLOs)
		return SLOResult{}
	}
	evaluateSLOs(rep, SLOConfig{}.withDefaults(), serverGates(burn))
	if !rep.Pass {
		t.Errorf("healthy report failed: %+v", rep.SLOs)
	}
	// A server gate passes while its bad fraction is at most the error
	// budget, and an SLO without traffic is skipped.
	if r := gate("read_latency"); !r.Pass || r.Skipped || r.Observed != 0.01 || r.Threshold != 0.01 {
		t.Errorf("read_latency at exactly its budget: %+v", r)
	}
	if r := gate("live_step"); !r.Skipped || !r.Pass {
		t.Errorf("live_step without traffic: %+v", r)
	}

	// One bad read past the budget fails the scenario under the SLO's
	// own name.
	burn[0].Window.Bad = 11
	evaluateSLOs(rep, SLOConfig{}.withDefaults(), serverGates(burn))
	if rep.Pass || gate("read_latency").Pass {
		t.Errorf("report passed with read_latency over budget: %+v", rep.SLOs)
	}

	// A blown client read SLO fails the scenario.
	burn[0].Window.Bad = 0
	rep.Populations[0].P99Millis = 80
	evaluateSLOs(rep, SLOConfig{}.withDefaults(), serverGates(burn))
	if rep.Pass {
		t.Error("report passed with read p99 80ms > 50ms threshold")
	}

	// Absent populations and a node without a timeline skip their
	// gates rather than failing.
	empty := &Report{}
	evaluateSLOs(empty, SLOConfig{}.withDefaults(),
		serverSLOs(context.Background(), nil, 0, 0, errors.New("no timeline attached")))
	if !empty.Pass {
		t.Errorf("empty report failed: %+v", empty.SLOs)
	}
	for _, r := range empty.SLOs {
		if !r.Skipped {
			t.Errorf("gate %s not marked skipped on empty report", r.Name)
		}
	}
	if got, want := len(empty.SLOs), 5+len(httpapi.DefaultSLOs()); got != want {
		t.Errorf("empty report has %d gates, want %d (client gates plus every default server SLO)", got, want)
	}
}

// TestServerGatesJudgeWholeRun makes every read of a run in its first
// capture interval. The server gates must still count each of them,
// over a judged span at least as long as the run.
func TestServerGatesJudgeWholeRun(t *testing.T) {
	g, err := graph.PreferentialAttachment(rng.New(11), 200, 3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	p := digg.NewPlatform(g, &digg.ClassicPromotion{VoteThreshold: 8, Window: digg.Day})
	srv := httpapi.NewServer(p, 100, nil)
	const interval, run = 250 * time.Millisecond, time.Second
	tl := obs.NewTimeline(obs.Default, 64, interval)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		tl.Run(ctx)
	}()
	defer func() {
		cancel()
		<-done
	}()
	srv.AttachTimeline(tl)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	time.Sleep(2 * interval) // captures from before the run
	start := time.Now()
	const reads = 20
	for i := 0; i < reads; i++ {
		resp, err := http.Get(ts.URL + "/v1/frontpage?limit=5")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	time.Sleep(time.Until(start.Add(run)))

	for _, r := range serverSLOs(context.Background(), httpapi.NewClient(ts.URL), interval, run, nil) {
		if r.Name != "read_latency" {
			continue
		}
		var bad, total int
		var covered float64
		_, err := fmt.Sscanf(r.Detail, "%d of %d", &bad, &total)
		if i := strings.LastIndex(r.Detail, " over "); err == nil && i >= 0 {
			_, err = fmt.Sscanf(r.Detail[i:], " over %fs", &covered)
		}
		if err != nil || r.Skipped {
			t.Fatalf("read_latency gate %+v (%v), want it measured", r, err)
		}
		if total != reads {
			t.Errorf("read_latency judged %d reads, want all %d of the run", total, reads)
		}
		if covered < run.Seconds() {
			t.Errorf("read_latency judged %.1fs, want at least the %v run", covered, run)
		}
		return
	}
	t.Fatal("no read_latency gate")
}

// TestScenarioEndToEnd runs a short mixed scenario — all four
// populations — against an in-process live diggd and checks every
// population did real work and the report is coherent.
func TestScenarioEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live scenario")
	}
	g, err := graph.PreferentialAttachment(rng.New(11), 1500, 4, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	p := digg.NewPlatform(g, &digg.ClassicPromotion{VoteThreshold: 8, Window: digg.Day})
	svc, err := live.NewService(p, live.Config{Seed: 5, SubmissionsPerHour: 60, StartAt: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Seed some stories so readers and writers have targets.
	if err := svc.StepTo(100 + digg.Day); err != nil {
		t.Fatal(err)
	}
	srv := httpapi.NewServer(p, 100, nil)
	srv.AttachLive(svc)
	tl := startTimeline(t)
	srv.AttachTimeline(tl)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Tick the simulation in the background so the stream carries
	// events and reads race a live writer, as in production. Gently:
	// everything here — client, server, stepper, and the SSE fan-out —
	// shares one core in CI, and each sim-minute stepped emits a burst
	// of vote events multiplied by every open swarm stream.
	stepCtx, stopStepping := context.WithCancel(context.Background())
	defer stopStepping()
	stepDone := make(chan struct{})
	go func() {
		defer close(stepDone)
		now := digg.Minutes(100 + digg.Day)
		for {
			select {
			case <-stepCtx.Done():
				return
			case <-time.After(50 * time.Millisecond):
				now++
				if err := svc.StepTo(now); err != nil {
					return
				}
			}
		}
	}()

	rep, err := Run(context.Background(), Scenario{
		BaseURL:         ts.URL,
		DurationSeconds: 2,
		RampSeconds:     0.2,
		ReadRPS:         50,
		CrawlRPS:        10,
		WriteRPS:        5,
		WriteBatch:      20,
		SwarmSize:       10,
		SwarmConnectRPS: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	stopStepping()
	<-stepDone

	for _, name := range []string{"read", "crawl", "write", "swarm"} {
		pop := rep.Population(name)
		if pop == nil {
			t.Fatalf("population %s missing from report", name)
		}
		if pop.Ops == 0 {
			t.Errorf("population %s did no work: %+v", name, *pop)
		}
		if pop.Errors > pop.Ops/10 {
			t.Errorf("population %s error-heavy: %+v", name, *pop)
		}
	}
	swarm := rep.Population("swarm")
	if swarm.Events == 0 {
		t.Error("swarm saw no events from the live stream")
	}
	if swarm.Streams == 0 {
		t.Error("swarm reports zero concurrent streams")
	}
	if rep.Combined == nil || rep.Combined.Ops == 0 {
		t.Error("combined histogram missing")
	}
	// Every server SLO saw traffic in the run window and was judged.
	for _, slo := range httpapi.DefaultSLOs() {
		found := false
		for _, r := range rep.SLOs {
			if r.Name == slo.Name {
				found = true
				t.Logf("server gate %s: observed %.4f, threshold %.2f (%s)", r.Name, r.Observed, r.Threshold, r.Detail)
				if r.Skipped {
					t.Errorf("server gate %s skipped: %s", r.Name, r.Detail)
				}
			}
		}
		if !found {
			t.Errorf("no gate for server SLO %s", slo.Name)
		}
	}

	// The report must serialize: it is the body of BENCH_load.json.
	if _, err := json.MarshalIndent(rep, "", "  "); err != nil {
		t.Fatalf("report does not serialize: %v", err)
	}
}

// startTimeline runs a fast-capturing timeline over obs.Default until
// the test ends.
func startTimeline(t *testing.T) *obs.Timeline {
	t.Helper()
	tl := obs.NewTimeline(obs.Default, 1024, 20*time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		tl.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return tl
}

// TestBurningSLOFailsReadyzAndRun gives a server an SLO every request
// breaks: /readyz reports it degraded, and a load run against the same
// server fails a gate of the same name, because both judge the
// server's one SLO table.
func TestBurningSLOFailsReadyzAndRun(t *testing.T) {
	g, err := graph.PreferentialAttachment(rng.New(11), 500, 4, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	p := digg.NewPlatform(g, &digg.ClassicPromotion{VoteThreshold: 8, Window: digg.Day})
	for i := 0; i < 20; i++ {
		if _, err := p.Submit(digg.UserID(i), "s", 0.5, 100); err != nil {
			t.Fatal(err)
		}
	}
	srv := httpapi.NewServer(p, 100, nil)
	burning := obs.SLO{Name: "every_request_slow", Family: "diggsim_http_request_seconds",
		Objective: 0.99, Threshold: time.Nanosecond}
	srv.AttachTimeline(startTimeline(t), append(httpapi.DefaultSLOs(), burning)...)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Traffic burns the SLO; readiness must name it within a few
	// captures.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			if !strings.Contains(string(body), burning.Name) {
				t.Fatalf("/readyz degraded without naming %s: %s", burning.Name, body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/readyz still %d with %s burning", resp.StatusCode, burning.Name)
		}
		time.Sleep(20 * time.Millisecond)
	}

	rep, err := Run(context.Background(), Scenario{
		BaseURL:         ts.URL,
		DurationSeconds: 0.5,
		RampSeconds:     0.1,
		ReadRPS:         40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Fatalf("run passed with %s burning: %+v", burning.Name, rep.SLOs)
	}
	for _, r := range rep.SLOs {
		if r.Name == burning.Name {
			if r.Pass || r.Skipped || r.Observed != 1 {
				t.Fatalf("gate %s: %+v, want failed with every observation bad", r.Name, r)
			}
			return
		}
	}
	t.Fatalf("no gate named %s in %+v", burning.Name, rep.SLOs)
}
