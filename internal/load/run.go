package load

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"diggsim/internal/httpapi"
	"diggsim/internal/obs"
)

// Run executes one mixed scenario against a live diggd and returns the
// measured report. The duration covers the whole run including the
// ramp; populations with a zero rate (or zero swarm size) are skipped.
// Run is synchronous: it returns after every in-flight operation has
// completed and the server's SLOs have been read over the run window.
func Run(ctx context.Context, sc Scenario) (*Report, error) {
	sc = sc.withDefaults()
	if sc.BaseURL == "" {
		return nil, fmt.Errorf("load: scenario needs a base_url")
	}
	// One client for every request population: retries off (a retry
	// would double-count an intended arrival and hide the failure) and
	// a generous per-request timeout so slow responses are measured,
	// not truncated.
	client := httpapi.NewClientWith(sc.BaseURL, httpapi.ClientOptions{
		HTTPClient: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        512,
				MaxIdleConnsPerHost: 512,
				DisableCompression:  true,
			},
		},
		MaxRetries:            -1,
		DisableTransientRetry: true,
	})
	if err := client.Health(ctx); err != nil {
		return nil, fmt.Errorf("load: server not healthy at %s: %w", sc.BaseURL, err)
	}
	tgt, err := discover(ctx, client)
	if err != nil {
		return nil, err
	}
	if tgt.stories == 0 && (sc.ReadRPS > 0 || sc.WriteRPS > 0) {
		return nil, fmt.Errorf("load: server has no stories to read or digg")
	}

	// The node's timeline capture cadence, so the gate read after the
	// run can wait for the first capture past its end.
	probe, probeErr := client.Timeline(ctx, time.Second, time.Second)
	interval := time.Duration(probe.IntervalSeconds * float64(time.Second))

	reg := obs.NewRegistry()
	duration := sc.Duration()
	ramp := sc.Ramp()
	if ramp > duration {
		ramp = duration
	}

	type population struct {
		name string
		rate float64
		hist *obs.Histogram
		cnt  counters
		run  func(ctx context.Context, hist *obs.Histogram, cnt *counters)
	}
	var pops []*population
	addOpen := func(name string, rate float64, newOp func(worker int) opFunc) {
		if rate <= 0 {
			return
		}
		p := &population{
			name: name,
			rate: rate,
			hist: reg.Histogram("diggload_op_seconds", fmt.Sprintf("population=%q", name),
				"Intended-start to completion latency by load population."),
		}
		p.run = func(ctx context.Context, hist *obs.Histogram, cnt *counters) {
			openLoop(ctx, NewPacer(rate, ramp), duration, workersFor(rate), hist, cnt, newOp)
		}
		pops = append(pops, p)
	}
	addOpen("read", sc.ReadRPS, newReaderOps(client, tgt, sc.Seed, sc.ZipfS))
	addOpen("crawl", sc.CrawlRPS, newCrawlerOps(client, 100))
	addOpen("write", sc.WriteRPS, newWriterOps(client, tgt, sc.Seed, sc.ZipfS, sc.WriteBatch, sc.SubmitEvery))
	addOpen("freshness", sc.FreshnessRPS, newFreshnessOps(client, tgt, sc.Seed))

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// The swarm holds streams open for the whole window; it is torn
	// down only after the request populations finish.
	var swarmHist *obs.Histogram
	var swarm swarmStats
	swarmCtx, stopSwarm := context.WithCancel(runCtx)
	defer stopSwarm()
	var swarmWG sync.WaitGroup
	if sc.SwarmSize > 0 {
		swarmHist = reg.Histogram("diggload_op_seconds", `population="swarm"`,
			"Intended-connect to first SSE event latency.")
		swarmWG.Add(1)
		go func() {
			defer swarmWG.Done()
			runSwarm(swarmCtx, sc.BaseURL, sc.SwarmSize, sc.SwarmConnectRPS, ramp, swarmHist, &swarm)
		}()
	}

	var wg sync.WaitGroup
	for _, p := range pops {
		wg.Add(1)
		go func(p *population) {
			defer wg.Done()
			p.run(runCtx, p.hist, &p.cnt)
		}(p)
	}
	wg.Wait()
	if sc.SwarmSize > 0 && len(pops) == 0 {
		// Swarm-only scenario: hold the streams for the full window.
		select {
		case <-ctx.Done():
		case <-time.After(duration):
		}
	}
	stopSwarm()
	swarmWG.Wait()

	rep := &Report{Scenario: sc}
	secs := duration.Seconds()
	var combined obs.HistSnapshot
	for _, p := range pops {
		snap := p.hist.Snapshot()
		combined.Merge(&snap)
		pr := PopulationReport{
			Name:        p.name,
			TargetRPS:   p.rate,
			Ops:         p.cnt.ops.Load(),
			Errors:      p.cnt.errors.Load(),
			Rejections:  p.cnt.rejections.Load(),
			AchievedRPS: float64(p.cnt.ops.Load()) / secs,
		}
		pr.P50Millis, pr.P90Millis, pr.P99Millis, pr.MaxMillis = quantilesMillis(&snap)
		rep.Populations = append(rep.Populations, pr)
	}
	if combined.Count() > 0 {
		c := PopulationReport{Name: "combined"}
		for _, pr := range rep.Populations {
			c.Ops += pr.Ops
			c.Errors += pr.Errors
			c.Rejections += pr.Rejections
		}
		c.AchievedRPS = float64(c.Ops) / secs
		c.P50Millis, c.P90Millis, c.P99Millis, c.MaxMillis = quantilesMillis(&combined)
		rep.Combined = &c
	}
	if sc.SwarmSize > 0 {
		snap := swarmHist.Snapshot()
		pr := PopulationReport{
			Name:          "swarm",
			TargetRPS:     sc.SwarmConnectRPS,
			Ops:           snap.Count(), // streams that received a first event
			Errors:        swarm.failures.Load(),
			Streams:       int(swarm.peak.Load()),
			Events:        swarm.events.Load(),
			LagEvents:     swarm.lagEvents.Load(),
			DroppedEvents: swarm.dropped.Load(),
		}
		pr.AchievedRPS = float64(pr.Ops) / secs
		pr.P50Millis, pr.P90Millis, pr.P99Millis, pr.MaxMillis = quantilesMillis(&snap)
		rep.Populations = append(rep.Populations, pr)
	}

	evaluateSLOs(rep, sc.SLO, serverSLOs(ctx, client, interval, duration, probeErr))
	return rep, nil
}
