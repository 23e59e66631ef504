// Command diggbench is the repository benchmark. It composes the diggd
// server in-process from library calls (exactly as `diggd -live
// -shards 2 -data-dir DIR` composes it), drives it over loopback
// sockets with at most two closed-loop client connections, checks the
// outputs, and prints one JSON result line.
//
// Usage, from the repository root:
//
//	bash diggbench/run.sh --workload browse|vote|replicate|paper \
//	    --seed N --seconds S --trace 0|1
//
// Every run is a fresh process with a fresh data directory under
// .bench_build/, and every input (corpus, Zipf draws, voters, story
// pool, stepper seed) derives from --seed.
//
// Fixed settings: the dataset.DefaultConfig corpus (20k users, 3,000
// stories), 2 shards, durable with fsync "interval" (50 ms) and the
// default 1-minute automatic checkpoint interval, the live stepper
// driven through Service.StepTo on 200 ms ticks of 2 sim-minutes
// (diggd's default tick x speedup 600), and the internal/load client
// mix (Zipf s = 0.8, 50-digg batches, a 5-story submit batch every
// 10th write). Write phases stay well under the checkpoint interval,
// so no automatic checkpoint lands inside a run; the run fails its
// checks if one does.
//
// Every workload prints the same end-to-end metrics, because each
// names a role rather than one workload's stream: a primary stream
// (ops_per_s, op_p50_ms, op_tail_ms), a secondary stream's median
// (aux_p50_ms), plus setup_s, peak_rss_mb and recover_s. The
// human-readable lines above the JSON line give each slot the
// workload's own name for it (read_rps, write_p99_ms,
// follower_lag_p90_ms, ...; see roles in workloads.go) and add the
// workload's other figures (read p99 beside writes, the per-event feed
// latency, reproduce_s).
//
// Latencies and rates are medians over equal windows of the measured
// span, and setup_s and recover_s are medians of repeated set-ups and
// reopens, so a burst of host noise moves a few samples, not the
// result.
//
// With --trace 1 the same workload runs with decorators around each
// layer's public functions and prints the per-layer metrics instead,
// plus the tracing overhead: the traced value minus the value of an
// untraced run of the same workload and seed, run first in a child
// process. The spans are written to .bench_build/spans-W-SEED.tsv.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"

	"diggsim/internal/experiments"
)

// e2eMetrics are the end-to-end metrics every workload prints with
// --trace 0, with their units.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"aux_p50_ms", "ms"},
	{"recover_s", "s"},
}

// layerMetrics are the per-layer metrics every workload prints with
// --trace 1. A layer a workload does not exercise reads 0.
var layerMetrics = func() []metricDef {
	defs := []metricDef{
		{"httpapi.story_busy_us", "us"},
		{"httpapi.frontpage_busy_us", "us"},
		{"httpapi.page_busy_us", "us"},
		{"httpapi.read_p99_us", "us"},
		{"httpapi.write_busy_us", "us"},
		{"httpapi.write_self_us", "us"},
		{"httpapi.write_wait_us", "us"},
		{"httpapi.rebuild_p50_us", "us"},
		{"httpapi.stories_encoded_per_rebuild", "count"},
		{"httpapi.read_bytes_per_op", "B"},
		{"shard.diggmany_busy_us", "us"},
		{"shard.diggmany_p99_us", "us"},
		{"shard.submitmany_busy_us", "us"},
		{"shard.query_busy_us", "us"},
		{"shard.apply_p50_us", "us"},
		{"digg.votes_attempted", "count"},
		{"digg.votes_applied", "count"},
		{"digg.vote_apply_ratio", "ratio"},
		{"digg.promotions", "count"},
		{"wal.append_p50_us", "us"},
		{"wal.fsync_p50_us", "us"},
		{"wal.fsyncs", "count"},
		{"wal.bytes_per_applied_vote", "B"},
		{"durable.create_s", "s"},
		{"durable.replayed_records", "count"},
		{"durable.replay_records_per_s", "1/s"},
		{"live.step_busy_us", "us"},
		{"live.step_p99_us", "us"},
		{"live.events_per_step", "count"},
		{"live.feed_p50_ms", "ms"},
		{"live.feed_p90_ms", "ms"},
		{"live.feed_delivery_ratio", "ratio"},
		{"live.bus_dropped", "count"},
		{"live.sse_flush_p50_us", "us"},
		{"repl.bootstrap_s", "s"},
		{"repl.apply_busy_us", "us"},
		{"repl.apply_p99_us", "us"},
		{"repl.records_per_apply", "count"},
		{"repl.absorb_busy_us", "us"},
		{"repl.ship_bytes_per_record", "B"},
		{"repl.tail_opens", "count"},
		{"dataset.generate_s", "s"},
	}
	for _, id := range experiments.IDs() {
		defs = append(defs, metricDef{"experiments." + id + "_s", "s"})
	}
	defs = append(defs,
		metricDef{"experiments.non_bitexact_metrics", "count"},
		metricDef{"runtime.alloc_bytes_per_op", "B"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_cpu_share", "ratio"},
		metricDef{"net.read_residual_us", "us"},
		metricDef{"net.write_residual_us", "us"},
		metricDef{"gen.late_p50_ms", "ms"},
		metricDef{"gen.late_p99_ms", "ms"},
	)
	for _, m := range e2eMetrics {
		defs = append(defs, metricDef{"overhead." + m.name, m.unit})
	}
	return defs
}()

type metricDef struct{ name, unit string }

// workloads maps each workload name to its run function.
var workloads = map[string]func(*bench) (*outcome, error){
	"browse":    runBrowse,
	"vote":      runVote,
	"replicate": runReplicate,
	"paper":     runPaper,
}

// outcome is what a workload run measured and checked.
type outcome struct {
	// e2e holds the end-to-end metrics by name; labels gives each the
	// workload's own name for it.
	e2e    map[string]float64
	labels map[string]string
	// notes are extra workload-specific lines for the human report.
	notes []string
	// layers holds the per-layer metrics (traced runs only).
	layers    map[string]float64
	attempted int64
	failed    int64
	problems  []string
}

func newOutcome(labels map[string]string) *outcome {
	return &outcome{e2e: map[string]float64{}, labels: labels, layers: map[string]float64{}}
}

// fail counts n failed ops and records why.
func (o *outcome) fail(n int64, format string, args ...any) {
	o.failed += n
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// note adds a line to the human report.
func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "browse, vote, replicate or paper")
	seed := flag.Uint64("seed", 1, "workload seed every input derives from")
	seconds := flag.Int("seconds", 20, "measured seconds per run (sizes the fixed work of writing workloads)")
	trace := flag.Int("trace", 0, "1 runs with per-layer decorators and prints per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "diggbench: need --workload browse|vote|replicate|paper, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}

	var untraced *result
	if *trace == 1 {
		r, err := runUntracedChild(*workload, *seed, *seconds)
		if err != nil {
			fatal(err)
		}
		untraced = r
	}

	b, err := newBench(*workload, *seed, *seconds, *trace == 1)
	if err != nil {
		fatal(err)
	}
	out, err := run(b)
	b.close()
	if err != nil {
		fatal(err)
	}
	res := buildResult(out, untraced, *trace == 1)
	report(os.Stdout, b, out, res)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// buildResult assembles the JSON line: end-to-end metrics untraced,
// per-layer metrics (with the traced-minus-untraced overhead) traced.
func buildResult(out *outcome, untraced *result, traced bool) *result {
	res := &result{
		Correct:   out.failed == 0 && len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Correct = false
	}
	defs := e2eMetrics
	values := out.e2e
	if traced {
		defs = layerMetrics
		values = out.layers
		for _, m := range e2eMetrics {
			values["overhead."+m.name] = out.e2e[m.name] - untraced.Metrics[m.name].Value
		}
		if !untraced.Correct {
			res.Correct = false
		}
	}
	for _, m := range defs {
		v := values[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out.problems = append(out.problems, "metric "+m.name+" is not finite")
			res.Correct = false
			v = 0
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return res
}

// report prints the human-readable lines: every end-to-end metric
// under both its slot name and the workload's own name, the checks,
// and in traced runs the per-layer metrics.
func report(w *os.File, b *bench, out *outcome, res *result) {
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	fmt.Fprintf(bw, "diggbench workload=%s seed=%d seconds=%d trace=%v\n", b.workload, b.seed, b.seconds, b.traced)
	for _, m := range e2eMetrics {
		fmt.Fprintf(bw, "  %-12s %-22s %14.4f %s\n", m.name, out.labels[m.name], out.e2e[m.name], m.unit)
	}
	for _, n := range out.notes {
		fmt.Fprintf(bw, "  %s\n", n)
	}
	if b.traced {
		names := make([]string, 0, len(res.Metrics))
		for name := range res.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(bw, "  %-40s %14.4f %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
		}
	}
	fmt.Fprintf(bw, "  ops attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	for _, p := range out.problems {
		fmt.Fprintf(bw, "  check failed: %s\n", p)
	}
}

// runUntracedChild runs the same workload and seed untraced in a fresh
// process and returns its result line, the baseline of the tracing
// overhead.
func runUntracedChild(workload string, seed uint64, seconds int) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("untraced baseline run: %w", err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return nil, fmt.Errorf("untraced baseline run: parsing result: %w", err)
	}
	if r.Metrics == nil {
		return nil, errors.New("untraced baseline run printed no metrics")
	}
	return &r, nil
}

// workDir returns a fresh per-process directory under .bench_build in
// the current directory.
func workDir() (string, error) {
	dir := filepath.Join(".bench_build", "run-"+strconv.Itoa(os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "diggbench:", err)
	os.Exit(1)
}
