// Command diggload runs one mixed load scenario from internal/load
// against a running diggd and emits a BENCH_load.json document in the
// cmd/benchjson envelope (generated_at, go_version, host facts, notes)
// with the full scenario report — per-population latency quantiles,
// swarm stream/event accounting, and the SLO verdict: the client-side
// gates plus the server's own SLOs, read from its /debug/timeline over
// the run window.
//
// Usage:
//
//	diggload -base-url http://127.0.0.1:8080 \
//	    [-scenario scenario.json] [-duration 10] [-ramp 1] \
//	    [-read-rps 50] [-crawl-rps 10] [-write-rps 5] [-swarm 100] \
//	    [-freshness-rps 2] \
//	    [-out BENCH_load.json] [-notes "..."] [-require read,swarm]
//
// A scenario file (the JSON form of load.Scenario) sets the baseline;
// any population flag given on the command line overrides it. The exit
// code is the gate: 0 when every SLO held (and every -require'd
// population did work), 1 otherwise — so a CI job needs no JSON
// scraping to fail on a regression. Use -no-gate to always exit 0 and
// let a downstream consumer judge the document.
//
// Run the target diggd with -trust-loopback when it also enforces
// -rate: the harness is deliberately hostile to per-IP limits, and all
// of its traffic comes from one loopback address. See docs/load.md for
// the runbook and for how to read the numbers on small machines.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"diggsim/internal/load"
)

// document is the emitted file: the benchjson host envelope wrapping
// the load report.
type document struct {
	GeneratedAt string       `json:"generated_at"`
	GoVersion   string       `json:"go_version"`
	GOOS        string       `json:"goos"`
	GOARCH      string       `json:"goarch"`
	NumCPU      int          `json:"num_cpu"`
	CPU         string       `json:"cpu,omitempty"`
	Notes       string       `json:"notes,omitempty"`
	Load        *load.Report `json:"load"`
}

func main() {
	baseURL := flag.String("base-url", "", "diggd server root, e.g. http://127.0.0.1:8080 (overrides the scenario file)")
	scenarioPath := flag.String("scenario", "", "JSON scenario file (load.Scenario); flags override its fields")
	duration := flag.Float64("duration", 0, "total run seconds, ramp included")
	ramp := flag.Float64("ramp", 0, "ramp-up seconds")
	seed := flag.Uint64("seed", 0, "RNG seed for Zipf ranks and voter picks")
	zipfS := flag.Float64("zipf-s", 0, "Zipf skew exponent for reader story ranks")
	readRPS := flag.Float64("read-rps", 0, "reader ops/sec (front page + Zipf story reads)")
	crawlRPS := flag.Float64("crawl-rps", 0, "crawler pages/sec (/v1/stories, /v1/frontpage cursors)")
	writeRPS := flag.Float64("write-rps", 0, "writer batch ops/sec (digg batches + submits)")
	freshRPS := flag.Float64("freshness-rps", 0, "freshness probes/sec (submit one story, poll until the read path serves it)")
	writeBatch := flag.Int("write-batch", 0, "diggs per write batch")
	swarm := flag.Int("swarm", 0, "concurrent SSE streams to hold on /v1/stream")
	swarmRPS := flag.Float64("swarm-connect-rps", 0, "SSE connection-establishment rate")
	out := flag.String("out", "BENCH_load.json", "output file (- for stdout)")
	notes := flag.String("notes", "", "free-form note recorded in the document")
	require := flag.String("require", "", "comma-separated populations that must report nonzero ops (e.g. read,crawl,write,swarm)")
	noGate := flag.Bool("no-gate", false, "always exit 0; report the verdict in the document only")
	flag.Parse()

	var sc load.Scenario
	if *scenarioPath != "" {
		raw, err := os.ReadFile(*scenarioPath)
		if err != nil {
			fatal(err)
		}
		if err := json.Unmarshal(raw, &sc); err != nil {
			fatal(fmt.Errorf("parse %s: %w", *scenarioPath, err))
		}
	}
	// Flags the user actually passed override the file, so a committed
	// scenario can be rerun with one knob turned.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	override := func(name string, apply func()) {
		if set[name] {
			apply()
		}
	}
	override("base-url", func() { sc.BaseURL = *baseURL })
	override("duration", func() { sc.DurationSeconds = *duration })
	override("ramp", func() { sc.RampSeconds = *ramp })
	override("seed", func() { sc.Seed = *seed })
	override("zipf-s", func() { sc.ZipfS = *zipfS })
	override("read-rps", func() { sc.ReadRPS = *readRPS })
	override("crawl-rps", func() { sc.CrawlRPS = *crawlRPS })
	override("write-rps", func() { sc.WriteRPS = *writeRPS })
	override("write-batch", func() { sc.WriteBatch = *writeBatch })
	override("freshness-rps", func() { sc.FreshnessRPS = *freshRPS })
	override("swarm", func() { sc.SwarmSize = *swarm })
	override("swarm-connect-rps", func() { sc.SwarmConnectRPS = *swarmRPS })
	if sc.BaseURL == "" {
		fatal(fmt.Errorf("need -base-url (or base_url in the scenario file)"))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	rep, err := load.Run(ctx, sc)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "diggload: scenario finished in %v\n", time.Since(start).Round(time.Millisecond))
	printSummary(rep)

	missing := missingPopulations(rep, *require)
	for _, name := range missing {
		fmt.Fprintf(os.Stderr, "diggload: FAIL required population %q did no work\n", name)
	}

	doc := document{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		CPU:         cpuModel(),
		Notes:       *notes,
		Load:        rep,
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	raw = append(raw, '\n')
	if *out == "-" {
		os.Stdout.Write(raw)
	} else {
		if err := os.WriteFile(*out, raw, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "diggload: wrote %s\n", *out)
	}

	if !*noGate && (!rep.Pass || len(missing) > 0) {
		os.Exit(1)
	}
}

// printSummary writes the human-readable run digest to stderr: one
// line per population, then the gate verdicts.
func printSummary(rep *load.Report) {
	w := os.Stderr
	fmt.Fprintf(w, "%-10s %10s %10s %8s %8s %9s %9s %9s\n",
		"population", "target/s", "achieved/s", "ops", "errors", "p50 ms", "p99 ms", "max ms")
	rows := rep.Populations
	if rep.Combined != nil {
		rows = append(rows[:len(rows):len(rows)], *rep.Combined)
	}
	for _, p := range rows {
		fmt.Fprintf(w, "%-10s %10.1f %10.1f %8d %8d %9.2f %9.2f %9.2f\n",
			p.Name, p.TargetRPS, p.AchievedRPS, p.Ops, p.Errors, p.P50Millis, p.P99Millis, p.MaxMillis)
		if p.Name == "swarm" {
			fmt.Fprintf(w, "%-10s streams=%d events=%d lag_events=%d dropped=%d\n",
				"", p.Streams, p.Events, p.LagEvents, p.DroppedEvents)
		}
	}
	for _, s := range rep.SLOs {
		verdict := "PASS"
		switch {
		case s.Skipped:
			verdict = "SKIP"
		case !s.Pass:
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "slo %-22s %s observed=%.3f threshold=%.3f (%s)\n",
			s.Name, verdict, s.Observed, s.Threshold, s.Detail)
	}
	overall := "PASS"
	if !rep.Pass {
		overall = "FAIL"
	}
	fmt.Fprintf(w, "diggload: scenario %s\n", overall)
}

// missingPopulations returns the -require'd populations that reported
// zero ops (or are absent entirely).
func missingPopulations(rep *load.Report, require string) []string {
	var missing []string
	for _, name := range strings.Split(require, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		p := rep.Population(name)
		if p == nil || p.Ops == 0 {
			missing = append(missing, name)
		}
	}
	return missing
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "diggload:", err)
	os.Exit(1)
}

// cpuModel best-effort reads the CPU model string, matching the "cpu:"
// line benchjson records from go test output.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			if i := strings.IndexByte(rest, ':'); i >= 0 {
				return strings.TrimSpace(rest[i+1:])
			}
		}
	}
	return ""
}
