package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// HistBuckets is the number of fixed log-scale buckets of a Histogram.
// Bucket i (i ≥ 1) holds durations whose nanosecond value has i
// significant bits, i.e. the half-open range [2^(i-1), 2^i); bucket 0
// holds zero and negative observations. 64 buckets cover every int64
// duration (~292 years), so there is no overflow bucket and no
// configuration — every histogram in the process is comparable.
const HistBuckets = 64

// Histogram records a duration distribution in fixed power-of-two
// buckets: two atomic adds per observation, no locks, no allocation.
// Factor-of-two resolution is coarse but exactly right for wall-clock
// stage times, whose interesting differences are orders of magnitude;
// quantile estimates interpolate within a bucket and are accurate to
// <2x, which is what the sweep dashboards need (is analysis µs or ms?).
//
// Snapshots taken during concurrent Observe calls may miss in-flight
// observations or see the bucket before the sum (the instrument is
// monotone, never inconsistent in rank order by more than the writes
// in flight).
type Histogram struct {
	buckets [HistBuckets]atomic.Int64
	sum     atomic.Int64
}

// bucketOf maps a nanosecond value to its bucket index.
func bucketOf(ns int64) int {
	if ns <= 0 {
		return 0
	}
	return bits.Len64(uint64(ns)) // 1..63 for positive int64
}

// BucketUpper returns the inclusive upper bound (ns) of bucket i.
func BucketUpper(i int) int64 {
	switch {
	case i <= 0:
		return 0
	case i >= 63:
		return math.MaxInt64
	default:
		return 1<<i - 1
	}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	h.buckets[bucketOf(ns)].Add(1)
	h.sum.Add(ns)
}

// Start begins a measurement; the returned func stops and records it.
// Usage: defer hist.Start()().
func (h *Histogram) Start() func() {
	begin := time.Now()
	return func() { h.Observe(time.Since(begin)) }
}

// Count returns the number of observations (the sum over buckets).
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Total returns the accumulated duration.
func (h *Histogram) Total() time.Duration { return time.Duration(h.sum.Load()) }

// Counts returns a snapshot of the per-bucket counts.
func (h *Histogram) Counts() [HistBuckets]int64 {
	var out [HistBuckets]int64
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the recorded
// distribution, interpolating linearly inside the selected bucket.
// Returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	counts := h.Counts()
	var total int64
	for _, c := range counts {
		total += c
	}
	return quantileOf(counts, total, q)
}

// quantileOf computes a quantile from a bucket snapshot holding total
// observations (shared by Quantile and Registry.Export, which batches
// three quantiles off one snapshot).
func quantileOf(counts [HistBuckets]int64, total int64, q float64) time.Duration {
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank in [1, total]: the smallest k with cum(k) ≥ q·total.
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		cum += c
		if cum < rank {
			continue
		}
		lo := int64(0)
		if i > 0 {
			lo = BucketUpper(i-1) + 1
		}
		hi := BucketUpper(i)
		// Position of the ranked observation within this bucket.
		pos := float64(rank-(cum-c)) / float64(c)
		return time.Duration(lo) + time.Duration(pos*float64(hi-lo))
	}
	return time.Duration(BucketUpper(HistBuckets - 1))
}

// reset zeroes all buckets and the sum.
func (h *Histogram) reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.sum.Store(0)
}
