package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// The histogram is log-linear (HDR-style): each power-of-two octave is
// split into subCount linear sub-buckets, so bucket bounds grow by a
// factor between 1.125 and 1.25 — the "power-of-~1.25" scheme — and
// the relative quantile error is bounded by 1/subCount = 25% worst
// case (half that on average). Bucket index is pure bit math: leading
// bit position selects the octave, the next subBits bits select the
// sub-bucket. Values are durations in nanoseconds.
const (
	subBits  = 2
	subCount = 1 << subBits // sub-buckets per octave

	// numBuckets covers every uint64 nanosecond value: values below
	// subCount get width-1 buckets, then (63 - subBits + 1) octaves of
	// subCount buckets each. Index for the top octave (k = 63) is
	// (63-subBits)*subCount + (subCount-1) + subCount = 251.
	numBuckets = (63-subBits+1)*subCount + subCount
)

// bucketIndex maps a nanosecond value to its bucket.
func bucketIndex(v uint64) int {
	if v < subCount {
		return int(v)
	}
	k := bits.Len64(v) - 1 // octave: v in [2^k, 2^(k+1))
	sub := int((v >> uint(k-subBits)) & (subCount - 1))
	return (k-subBits)*subCount + sub + subCount
}

// BucketBounds returns bucket i's half-open value range [lower, upper)
// in nanoseconds.
func BucketBounds(i int) (lower, upper uint64) {
	if i < subCount {
		return uint64(i), uint64(i) + 1
	}
	k := subBits + (i-subCount)/subCount
	sub := uint64((i - subCount) % subCount)
	width := uint64(1) << uint(k-subBits)
	lower = 1<<uint(k) + sub*width
	return lower, lower + width
}

// paddedUint64 is an atomic counter padded to its own cache line so
// hot instruments touched from many cores don't false-share.
type paddedUint64 struct {
	atomic.Uint64
	_ [56]byte
}

// Histogram is a lock-free, allocation-free latency histogram: an
// array of atomic bucket counters plus an atomic nanosecond sum.
// Observe is two uncontended atomic adds and never allocates, so it
// is safe on the 0-alloc serving path. All read-side computation
// (count, quantiles, exposition) happens on snapshots.
//
// Obtain instances from a Registry; the zero value records but is
// never exported.
type Histogram struct {
	labels string
	sum    paddedUint64
	counts [numBuckets]atomic.Uint64
}

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	v := uint64(0)
	if d > 0 {
		v = uint64(d)
	}
	h.counts[bucketIndex(v)].Add(1)
	h.sum.Add(v)
}

// Labels returns the series' label-pair text ("" when unlabeled).
func (h *Histogram) Labels() string { return h.labels }

// HistSnapshot is a point-in-time copy of a histogram, mergeable with
// others recorded in the same bucket layout.
type HistSnapshot struct {
	Counts []uint64
	Sum    uint64 // total observed nanoseconds
}

// Load copies the histogram's current state into s, reusing s.Counts
// when already sized. Concurrent Observe calls may land between bucket
// reads; each bucket is individually exact and the snapshot is a valid
// histogram of a set of observations that all happened.
func (h *Histogram) Load(s *HistSnapshot) {
	if cap(s.Counts) < numBuckets {
		s.Counts = make([]uint64, numBuckets)
	}
	s.Counts = s.Counts[:numBuckets]
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Sum = h.sum.Load()
}

// Snapshot returns a fresh snapshot of the histogram.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	h.Load(&s)
	return s
}

// Count returns the total number of observations.
func (s *HistSnapshot) Count() uint64 {
	var n uint64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// Merge folds o into s bucket-by-bucket. Merging is associative and
// commutative, so per-shard or per-process snapshots can be combined
// in any order and quantiles computed once over the union.
func (s *HistSnapshot) Merge(o *HistSnapshot) {
	if cap(s.Counts) < numBuckets {
		grown := make([]uint64, numBuckets)
		copy(grown, s.Counts)
		s.Counts = grown
	}
	s.Counts = s.Counts[:numBuckets]
	for i, c := range o.Counts {
		s.Counts[i] += c
	}
	s.Sum += o.Sum
}

// Quantile returns the q-quantile (0 <= q <= 1) in nanoseconds,
// linearly interpolated within the bucket containing the target rank.
// The estimate always lies inside that bucket's bounds, so its
// relative error is bounded by the bucket width (<= 25%, typically
// ~12%). Returns 0 for an empty snapshot.
func (s *HistSnapshot) Quantile(q float64) float64 {
	total := s.Count()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Target rank in [1, total]: the ceil makes q=0 the minimum
	// observation's bucket and q=1 the maximum's.
	target := uint64(q * float64(total))
	if float64(target) < q*float64(total) || target == 0 {
		target++
	}
	if target > total {
		target = total
	}
	var cum uint64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if cum+c >= target {
			lower, upper := BucketBounds(i)
			// Position of the target rank within this bucket.
			frac := (float64(target) - float64(cum) - 0.5) / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return float64(lower) + frac*float64(upper-lower)
		}
		cum += c
	}
	return 0
}

// Max returns the upper bound of the highest non-empty bucket — an
// upper estimate of the largest observation. Returns 0 when empty.
func (s *HistSnapshot) Max() float64 {
	for i := len(s.Counts) - 1; i >= 0; i-- {
		if s.Counts[i] != 0 {
			_, upper := BucketBounds(i)
			return float64(upper)
		}
	}
	return 0
}
