package metrics

import (
	"math"
	"sync"
	"testing"
	"time"
)

// TestBucketBoundaries pins the bucket mapping at the powers of two:
// bucket i holds [2^(i-1), 2^i), bucket 0 holds ≤ 0.
func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		ns     int64
		bucket int
	}{
		{-5, 0}, {0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4},
		{1023, 10}, {1024, 11},
		{1<<62 - 1, 62}, {1 << 62, 63}, {math.MaxInt64, 63},
	}
	for _, c := range cases {
		if got := bucketOf(c.ns); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.ns, got, c.bucket)
		}
	}
	// The mapping and the declared bounds must agree: every value is
	// ≤ its bucket's upper bound and > the previous bucket's.
	for _, ns := range []int64{1, 2, 3, 1000, 123456789, math.MaxInt64} {
		b := bucketOf(ns)
		if ns > BucketUpper(b) {
			t.Errorf("value %d above BucketUpper(%d) = %d", ns, b, BucketUpper(b))
		}
		if b > 0 && ns <= BucketUpper(b-1) {
			t.Errorf("value %d not above BucketUpper(%d) = %d", ns, b-1, BucketUpper(b-1))
		}
	}
}

func TestHistogramTotals(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile != 0")
	}
	durations := []time.Duration{time.Microsecond, 3 * time.Microsecond, time.Millisecond, time.Second}
	var want time.Duration
	for _, d := range durations {
		h.Observe(d)
		want += d
	}
	if h.Count() != int64(len(durations)) {
		t.Errorf("Count = %d, want %d", h.Count(), len(durations))
	}
	if h.Total() != want {
		t.Errorf("Total = %v, want %v", h.Total(), want)
	}
}

// TestQuantiles checks rank selection across buckets and interpolation
// within one: quantiles of a known distribution land in the right
// bucket, and the declared <2x resolution holds.
func TestQuantiles(t *testing.T) {
	var h Histogram
	// 90 fast observations (~1µs) and 10 slow ones (~1s).
	for i := 0; i < 90; i++ {
		h.Observe(time.Microsecond) // bucket 10: [512, 1023]
	}
	for i := 0; i < 10; i++ {
		h.Observe(time.Second) // bucket 30
	}
	p50 := h.Quantile(0.50)
	if lo, hi := 512*time.Nanosecond, 1023*time.Nanosecond; p50 < lo || p50 > hi {
		t.Errorf("p50 = %v, want within [%v, %v]", p50, lo, hi)
	}
	p99 := h.Quantile(0.99)
	if lo, hi := 512*time.Millisecond, 1024*time.Millisecond; p99 < lo || p99 > hi {
		t.Errorf("p99 = %v, want within [%v, %v]", p99, lo, hi)
	}
	if p90 := h.Quantile(0.90); p90 > 1023*time.Nanosecond {
		// rank ⌈0.9·100⌉ = 90 is the last fast observation.
		t.Errorf("p90 = %v, want in the fast bucket", p90)
	}
	// Degenerate quantile arguments clamp instead of panicking.
	if h.Quantile(-1) > h.Quantile(2) {
		t.Error("clamped quantiles out of order")
	}
}

// TestQuantileInterpolation pins the within-bucket linear estimate:
// with all mass in one bucket, quantiles sweep the bucket's range
// monotonically.
func TestQuantileInterpolation(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(700 * time.Nanosecond) // bucket 10: [512, 1023]
	}
	last := time.Duration(0)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.75, 1.0} {
		v := h.Quantile(q)
		if v < 512 || v > 1023 {
			t.Errorf("Quantile(%v) = %v outside bucket [512ns, 1023ns]", q, v)
		}
		if v < last {
			t.Errorf("Quantile(%v) = %v < previous %v (not monotone)", q, v, last)
		}
		last = v
	}
}

func TestHistogramRegistry(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("stage.x")
	if h != r.Histogram("stage.x") {
		t.Error("Histogram not idempotent")
	}
	h.Observe(time.Millisecond)
	h.Observe(3 * time.Millisecond)
	entries := map[string]int64{}
	for _, e := range r.Snapshot() {
		entries[e.Name] = e.Value
	}
	if entries["stage.x.count"] != 2 {
		t.Errorf("snapshot count = %d, want 2", entries["stage.x.count"])
	}
	if entries["stage.x.ns"] != int64(4*time.Millisecond) {
		t.Errorf("snapshot ns = %d", entries["stage.x.ns"])
	}
	for _, q := range []string{"stage.x.p50", "stage.x.p90", "stage.x.p99"} {
		if _, ok := entries[q]; !ok {
			t.Errorf("snapshot missing %s", q)
		}
	}
	r.Reset()
	if h.Count() != 0 || h.Total() != 0 {
		t.Error("Reset did not zero the histogram")
	}
}

func TestExport(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.counter").Add(7)
	r.Counter("a.counter").Inc()
	r.Histogram("t").Observe(5 * time.Millisecond)
	r.Histogram("h").Observe(2 * time.Microsecond)
	ex := r.Export()
	if len(ex.Counters) != 2 || ex.Counters[0].Name != "a.counter" || ex.Counters[1].Value != 7 {
		t.Errorf("counters: %+v", ex.Counters)
	}
	if len(ex.Histograms) != 2 || ex.Histograms[0].Name != "h" || ex.Histograms[1].SumNS != int64(5*time.Millisecond) {
		t.Fatalf("histograms: %+v", ex.Histograms)
	}
	h := ex.Histograms[0]
	if h.Count != 1 || h.SumNS != 2000 {
		t.Errorf("histogram h: count %d, sum %d", h.Count, h.SumNS)
	}
	if b := h.Buckets[bucketOf(2000)]; b != 1 {
		t.Errorf("bucket count = %d", b)
	}
	// The quantiles come from the exported buckets: one observation
	// puts all three in its bucket, [1024ns, 2047ns].
	for _, q := range []time.Duration{h.P50, h.P90, h.P99} {
		if q < 1024 || q > 2047 {
			t.Errorf("quantile %v outside the 2µs bucket", q)
		}
	}
}

// TestHistogramConcurrent checks the lock-free observation path under
// the race detector and that no observation is lost.
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w+1) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Errorf("Count = %d, want %d", h.Count(), workers*per)
	}
}

// TestTimerSnapshotCoherent hammers a registry histogram with
// fixed-size observations while exporting: Count never decreases, and
// once it is positive p50, p90 and p99 all lie in d's bucket. Export
// derives Count and the quantiles from one bucket snapshot; a Count
// read separately can run ahead of the buckets, and the quantile rank
// then falls off the end to the MaxInt64 sentinel.
func TestTimerSnapshotCoherent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("hammered")
	const d = 3 * time.Millisecond
	lo, hi := BucketUpper(bucketOf(int64(d))-1)+1, BucketUpper(bucketOf(int64(d)))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					h.Observe(d)
				}
			}
		}()
	}
	var last int64
	for i := 0; i < 5000; i++ {
		hv := r.Export().Histograms[0]
		if hv.Count < last {
			t.Fatalf("count went backwards: %d after %d", hv.Count, last)
		}
		last = hv.Count
		for _, q := range []time.Duration{hv.P50, hv.P90, hv.P99} {
			if hv.Count > 0 && (int64(q) < lo || int64(q) > hi) {
				t.Fatalf("torn export: count %d, quantile %v outside [%dns, %dns]", hv.Count, q, lo, hi)
			}
		}
	}
}
