package main

import (
	"math"
	"testing"

	"diggsim/internal/experiments"
)

func TestCheckRepeat(t *testing.T) {
	first := experiments.Result{ID: "fig2b", Text: "report", Metrics: map[string]float64{"alpha": 11.079901218866119, "n": 3}}
	repeat := func(text string, metrics map[string]float64) (*outcome, map[string]float64) {
		o := newOutcome(nil)
		drift := map[string]float64{}
		checkRepeat(o, first, experiments.Result{ID: "fig2b", Text: text, Metrics: metrics}, drift)
		return o, drift
	}

	o, drift := repeat("report", map[string]float64{"alpha": 11.079901218866139, "n": 3})
	if o.failed != 0 {
		t.Errorf("a few ULPs of summation-order error failed the op: %v", o.problems)
	}
	if d := drift["fig2b.alpha"]; !(d > 0 && d < 1e-14) {
		t.Errorf("drift of fig2b.alpha = %v, want the ULP-level difference recorded", d)
	}
	if _, ok := drift["fig2b.n"]; ok {
		t.Error("a bit-identical metric was recorded as drift")
	}

	for name, c := range map[string]struct {
		text    string
		metrics map[string]float64
	}{
		"changed result": {"report", map[string]float64{"alpha": 11.0799013, "n": 3}},
		"changed text":   {"report!", map[string]float64{"alpha": 11.079901218866119, "n": 3}},
		"renamed metric": {"report", map[string]float64{"alpha": 11.079901218866119, "m": 3}},
		"NaN":            {"report", map[string]float64{"alpha": math.NaN(), "n": 3}},
	} {
		if o, _ := repeat(c.text, c.metrics); o.failed != 1 {
			t.Errorf("%s: failed %d ops, want 1", name, o.failed)
		}
	}
}
