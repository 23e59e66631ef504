// Package experiments regenerates every table and figure of the paper
// from a synthetic corpus, plus the §6 extension studies and the design
// ablations (`go run ./cmd/experiments -list` names them all). Each
// experiment renders a terminal report (with ASCII figures) and returns
// machine-readable metrics that the test suite and the benchmark's
// paper workload (BENCHMARK.json) consume.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"diggsim/internal/dataset"
)

// Result is one experiment's output.
type Result struct {
	ID      string
	Title   string
	Text    string             // human-readable report, including figures
	Metrics map[string]float64 // key numbers, stable keys

	buf strings.Builder
}

// printf appends a line to the report text.
func (r *Result) printf(format string, args ...any) {
	fmt.Fprintf(&r.buf, format+"\n", args...)
}

// metric records a machine-readable value and logs it to the report.
func (r *Result) metric(key string, value float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]float64{}
	}
	r.Metrics[key] = value
	fmt.Fprintf(&r.buf, "  %-32s %.4g\n", key, value)
}

// finish freezes the report text.
func (r *Result) finish() { r.Text = r.buf.String() }

// Runner executes experiments against a shared corpus.
type Runner struct {
	DS *dataset.Dataset
	// Seed drives experiment-local randomness (cross-validation
	// shuffles, extension simulations); the corpus has its own seed.
	Seed uint64
}

// runFunc is the signature of one experiment.
type runFunc func(*Runner) (Result, error)

// registry maps experiment IDs to implementations, populated in
// figures.go, extensions.go and ablations.go.
var registry = map[string]struct {
	title string
	fn    runFunc
}{}

func register(id, title string, fn runFunc) {
	registry[id] = struct {
		title string
		fn    runFunc
	}{title, fn}
}

// IDs returns all experiment IDs in deterministic order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Title returns the registered title of an experiment ID.
func Title(id string) string { return registry[id].title }

// Run executes one experiment by ID.
func (r *Runner) Run(id string) (Result, error) {
	entry, ok := registry[id]
	if !ok {
		return Result{}, fmt.Errorf("experiments: unknown id %q (have %s)",
			id, strings.Join(IDs(), ", "))
	}
	res, err := entry.fn(r)
	if err != nil {
		return Result{}, fmt.Errorf("experiments: %s: %w", id, err)
	}
	res.ID = id
	res.Title = entry.title
	return res, nil
}

// RunAll executes every registered experiment in ID order.
func (r *Runner) RunAll() ([]Result, error) {
	var out []Result
	for _, id := range IDs() {
		res, err := r.Run(id)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}
