package main

import "testing"

// steadySteal returns samples one tick apart whose steal grows by the
// given per-interval amounts out of 100 ticks of CPU time each.
func steadySteal(steals ...uint64) *hostSteal {
	h := &hostSteal{samples: []stealSample{{at: 0}}}
	var steal, total uint64
	for i, s := range steals {
		steal += s
		total += 100
		h.samples = append(h.samples, stealSample{at: int64(i+1) * 10, steal: steal, total: total})
	}
	return h
}

func TestQuieterDropsStolenIntervals(t *testing.T) {
	h := steadySteal(0, 30, 0, 0, 50, 0)
	var xs []interval
	for i := 0; i < 6; i++ {
		xs = append(xs, interval{value: float64(i), start: int64(i) * 10, end: int64(i+1) * 10})
	}
	got := h.quieter(xs)
	if len(got) != 4 {
		t.Fatalf("kept %d intervals, want the 4 without steal", len(got))
	}
	for _, x := range got {
		if x.value == 1 || x.value == 4 {
			t.Errorf("kept interval %v, which lost CPU to steal", x.value)
		}
	}
	if m := h.quietMedian(xs); m != 2.5 {
		t.Errorf("quiet median %v, want 2.5 (of 0, 2, 3, 5)", m)
	}
}

func TestQuieterKeepsAllOnQuietHostOrWithoutReadings(t *testing.T) {
	xs := []interval{{value: 1, start: 0, end: 10}, {value: 2, start: 10, end: 20}, {value: 3, start: 20, end: 30}, {value: 4, start: 30, end: 40}}
	if got := steadySteal(0, 0, 0, 0).quieter(xs); len(got) != len(xs) {
		t.Errorf("quiet host: kept %d of %d intervals", len(got), len(xs))
	}
	if got := (&hostSteal{}).quieter(xs); len(got) != len(xs) {
		t.Errorf("no readings: kept %d of %d intervals", len(got), len(xs))
	}
}
