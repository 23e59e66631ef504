package obs

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestBucketLayout pins the bucket scheme: contiguous half-open
// ranges, index/bounds round-trip exactly, and growth stays within
// the power-of-~1.25 contract.
func TestBucketLayout(t *testing.T) {
	prevUpper := uint64(0)
	for i := 0; i < numBuckets; i++ {
		lower, upper := BucketBounds(i)
		if lower != prevUpper {
			t.Fatalf("bucket %d: lower %d, want %d (contiguity)", i, lower, prevUpper)
		}
		if upper <= lower && i != numBuckets-1 {
			t.Fatalf("bucket %d: empty range [%d,%d)", i, lower, upper)
		}
		if got := bucketIndex(lower); got != i {
			t.Fatalf("bucketIndex(%d) = %d, want %d", lower, got, i)
		}
		if upper > lower {
			if got := bucketIndex(upper - 1); got != i {
				t.Fatalf("bucketIndex(%d) = %d, want %d", upper-1, got, i)
			}
		}
		// Relative width <= 25% once past the exact small values.
		if i >= subCount && lower > 0 {
			if ratio := float64(upper) / float64(lower); ratio > 1.2501 {
				t.Fatalf("bucket %d: bound ratio %.4f > 1.25", i, ratio)
			}
		}
		prevUpper = upper
	}
}

// TestQuantileAccuracy is the property test against a sorted
// reference: for heavy-tailed samples, every estimated quantile must
// land inside the bucket holding the true empirical quantile — the
// tightest guarantee a bucketed histogram can make.
func TestQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 100 + rng.Intn(5000)
		samples := make([]uint64, n)
		var h Histogram
		for i := range samples {
			// Log-uniform over ~6 decades: the shape of real latency.
			v := uint64(100 * rng.ExpFloat64() * float64(uint64(1)<<uint(rng.Intn(20))))
			samples[i] = v
			h.Observe(time.Duration(v))
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		snap := h.Snapshot()
		if got := snap.Count(); got != uint64(n) {
			t.Fatalf("trial %d: count %d, want %d", trial, got, n)
		}
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 0.999, 1} {
			rank := int(q * float64(n))
			if rank >= n {
				rank = n - 1
			}
			ref := samples[rank]
			lower, upper := BucketBounds(bucketIndex(ref))
			est := snap.Quantile(q)
			if est < float64(lower) || est > float64(upper) {
				t.Errorf("trial %d q=%.3f: estimate %.0f outside bucket [%d,%d) of reference %d",
					trial, q, est, lower, upper, ref)
			}
			if est > snap.Max() {
				t.Errorf("trial %d q=%.3f: estimate %.0f above Max %.0f", trial, q, est, snap.Max())
			}
		}
	}
}

// TestMergeAssociativity: (a+b)+c == a+(b+c) == c+(b+a), bucket by
// bucket and in every quantile.
func TestMergeAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	mk := func() HistSnapshot {
		var h Histogram
		for i := 0; i < 1000; i++ {
			h.Observe(time.Duration(rng.Intn(1_000_000)))
		}
		return h.Snapshot()
	}
	a, b, c := mk(), mk(), mk()

	merge := func(parts ...HistSnapshot) HistSnapshot {
		var out HistSnapshot
		for i := range parts {
			out.Merge(&parts[i])
		}
		return out
	}
	left := merge(merge(a, b), c)
	right := merge(a, merge(b, c))
	rev := merge(c, b, a)
	for _, other := range []HistSnapshot{right, rev} {
		if left.Sum != other.Sum {
			t.Fatalf("merged sums differ: %d vs %d", left.Sum, other.Sum)
		}
		for i := range left.Counts {
			if left.Counts[i] != other.Counts[i] {
				t.Fatalf("bucket %d differs after reordering: %d vs %d", i, left.Counts[i], other.Counts[i])
			}
		}
	}
	if left.Count() != 3000 {
		t.Fatalf("merged count %d, want 3000", left.Count())
	}
	for _, q := range []float64{0.5, 0.99} {
		if left.Quantile(q) != right.Quantile(q) {
			t.Fatalf("q%.2f differs across merge orders", q)
		}
	}
}

// TestConcurrentObserve hammers one histogram from many goroutines;
// run under -race in CI, and the final count must be exact.
func TestConcurrentObserve(t *testing.T) {
	var h Histogram
	const workers = 8
	const perWorker = 20000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				h.Observe(time.Duration(rng.Intn(10_000_000)))
			}
		}(int64(w))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var snap HistSnapshot
		for i := 0; i < 100; i++ {
			h.Load(&snap) // concurrent reads must be race-clean
			_ = snap.Quantile(0.99)
		}
	}()
	wg.Wait()
	<-done
	final := h.Snapshot()
	if got := final.Count(); got != workers*perWorker {
		t.Fatalf("count %d, want %d", got, workers*perWorker)
	}
}

// TestObserveZeroAlloc is the hot-path allocation guard for the
// histogram core itself.
func TestObserveZeroAlloc(t *testing.T) {
	var h Histogram
	if allocs := testing.AllocsPerRun(1000, func() { h.Observe(137 * time.Microsecond) }); allocs != 0 {
		t.Fatalf("Observe allocates %.1f per op, want 0", allocs)
	}
	tr := NewTrace(1, time.Now())
	if allocs := testing.AllocsPerRun(1000, func() {
		tr.Reset(2, time.Now())
		sp := tr.StartSpan("stage")
		sp.End()
	}); allocs != 0 {
		t.Fatalf("span record allocates %.1f per op, want 0", allocs)
	}
}

// TestRegistryGetOrCreate: same (family, labels) returns the same
// instrument; distinct labels are distinct series under one family.
func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("x_seconds", `route="a"`, "help")
	b := r.Histogram("x_seconds", `route="b"`, "help")
	if a == b {
		t.Fatal("distinct labels returned the same series")
	}
	if again := r.Histogram("x_seconds", `route="a"`, "other"); again != a {
		t.Fatal("get-or-create returned a fresh series")
	}
	c := r.Counter("y_total", "help")
	if again := r.Counter("y_total", "help"); again != c {
		t.Fatal("counter get-or-create returned a fresh counter")
	}
}

// TestWritePrometheus checks the exposition: cumulative buckets, +Inf
// equal to _count, sum in seconds, labels spliced correctly.
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("req_seconds", `route="fp"`, "Request latency.")
	for _, d := range []time.Duration{time.Microsecond, 10 * time.Microsecond, 10 * time.Microsecond, time.Millisecond} {
		h.Observe(d)
	}
	ctr := r.Counter("ops_total", "Ops.")
	ctr.Add(5)

	var b bytes.Buffer
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE req_seconds histogram",
		`req_seconds_bucket{route="fp",le="+Inf"} 4`,
		`req_seconds_count{route="fp"} 4`,
		"# TYPE ops_total counter",
		"ops_total 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Buckets must be cumulative and non-decreasing.
	var last float64 = -1
	var lastCum uint64
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, `req_seconds_bucket{route="fp",le="`) || strings.Contains(line, "+Inf") {
			continue
		}
		rest := strings.TrimPrefix(line, `req_seconds_bucket{route="fp",le="`)
		parts := strings.SplitN(rest, `"} `, 2)
		le, err := strconv.ParseFloat(parts[0], 64)
		if err != nil {
			t.Fatalf("bad le in %q: %v", line, err)
		}
		cum, err := strconv.ParseUint(parts[1], 10, 64)
		if err != nil {
			t.Fatalf("bad count in %q: %v", line, err)
		}
		if le <= last {
			t.Fatalf("le bounds not increasing at %q", line)
		}
		if cum < lastCum {
			t.Fatalf("cumulative counts decreasing at %q", line)
		}
		last, lastCum = le, cum
	}
	if lastCum != 4 {
		t.Fatalf("last cumulative bucket %d, want 4", lastCum)
	}
}

func BenchmarkObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i))
	}
}

func BenchmarkObserveParallel(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		d := time.Duration(0)
		for pb.Next() {
			h.Observe(d)
			d += 997
		}
	})
}

func ExampleHistSnapshot_Quantile() {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	s := h.Snapshot()
	fmt.Println(s.Count(), time.Duration(s.Quantile(0.5)).Round(50*time.Microsecond))
	// Output: 1000 500µs
}
