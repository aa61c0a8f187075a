// Package metrics is a minimal process-wide registry of named counters,
// timers, and log-scale histograms for the analysis engine and the
// experiment harness.
//
// The instruments are cheap enough to leave enabled unconditionally
// (atomic adds on the hot paths, one mutex-guarded map lookup at
// package-variable initialization), deterministic counters plus
// wall-clock timers, and carry no dependencies, so every layer — the
// scheduling fixed point, the pair descent, the sweep workers —
// can record what it did without threading a context through the whole
// call tree. CLI frontends dump the registry after a run (behind a
// default-off flag, keeping golden outputs stable); tests reset it.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// counterShards is the number of independent accumulation slots per
// counter (power of two). Hot counters are incremented once per chain
// pair or per simulated run by every sweep worker concurrently; a single
// atomic word turns into a cross-core cache-line ping-pong that showed
// up at ~10% of a parallel Fig. 6 sweep. Each shard is padded to its own
// cache line, and writers pick a shard from their stack address, so
// workers on different goroutines rarely contend.
const counterShards = 8

type counterShard struct {
	v atomic.Int64
	_ [56]byte // pad to a cache line so shards don't false-share
}

// shardIndex spreads goroutines across shards. Goroutine stacks are
// distinct allocations of at least a kilobyte, so bits above the low
// page of a stack address distinguish goroutines cheaply. Any index is
// correct — this only steers contention.
func shardIndex() int {
	var x byte
	return int(uintptr(unsafe.Pointer(&x)) >> 10 & (counterShards - 1))
}

// Counter is a monotonically increasing (well, Add accepts any delta)
// sharded atomic counter.
type Counter struct {
	shards [counterShards]counterShard
}

// Inc adds one.
func (c *Counter) Inc() { c.shards[shardIndex()].v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.shards[shardIndex()].v.Add(n) }

// Load returns the current value: the sum over shards. Concurrent adds
// may or may not be included, as with a single atomic word.
func (c *Counter) Load() int64 {
	var sum int64
	for i := range c.shards {
		sum += c.shards[i].v.Load()
	}
	return sum
}

// reset zeroes all shards.
func (c *Counter) reset() {
	for i := range c.shards {
		c.shards[i].v.Store(0)
	}
}

// Timer accumulates durations: total nanoseconds and observation count.
//
// The (total, count) pair is kept coherent with a seqlock: writers
// serialize on the sequence word (one CAS on the uncontended path) and
// bracket their two adds with odd/even transitions; Snapshot retries
// until it reads an even, unchanged sequence. Total and Count read one
// word each and never tear individually, but reading them separately
// can still observe an update between the two calls — use Snapshot for
// a coherent pair (Registry.Snapshot does).
type Timer struct {
	seq   atomic.Uint64
	ns    atomic.Int64
	count atomic.Int64
}

// Observe records one duration.
func (t *Timer) Observe(d time.Duration) {
	for {
		s := t.seq.Load()
		if s&1 == 0 && t.seq.CompareAndSwap(s, s+1) {
			break
		}
	}
	t.ns.Add(int64(d))
	t.count.Add(1)
	t.seq.Add(1)
}

// Start begins a measurement; the returned func stops and records it.
// Usage: defer timer.Start()().
func (t *Timer) Start() func() {
	begin := time.Now()
	return func() { t.Observe(time.Since(begin)) }
}

// Total returns the accumulated duration.
func (t *Timer) Total() time.Duration { return time.Duration(t.ns.Load()) }

// Count returns the number of observations.
func (t *Timer) Count() int64 { return t.count.Load() }

// Snapshot returns the accumulated total and count as one coherent
// pair: the returned values come from the same point in the
// observation sequence, even under concurrent Observe calls. After a
// bounded number of optimistic retries under sustained writes it takes
// the write side like Observe does and reads under it: a writer
// preempted while holding the sequence odd can outlast any retry bound,
// so falling back to an unguarded read would return a torn pair.
func (t *Timer) Snapshot() (total time.Duration, count int64) {
	for attempt := 0; attempt < 128; attempt++ {
		s := t.seq.Load()
		if s&1 != 0 {
			continue
		}
		ns, c := t.ns.Load(), t.count.Load()
		if t.seq.Load() == s {
			return time.Duration(ns), c
		}
	}
	for {
		s := t.seq.Load()
		if s&1 == 0 && t.seq.CompareAndSwap(s, s+1) {
			break
		}
	}
	ns, c := t.ns.Load(), t.count.Load()
	t.seq.Add(1)
	return time.Duration(ns), c
}

// Registry is a named collection of instruments. The zero value is not
// usable; use NewRegistry or the package-level Default.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	timers   map[string]*Timer
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		timers:   make(map[string]*Timer),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. The
// returned pointer is stable; callers should look it up once (package
// variable) and increment through the pointer.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Timer returns the named timer, creating it on first use.
func (r *Registry) Timer(name string) *Timer {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.timers[name]
	if !ok {
		t = &Timer{}
		r.timers[name] = t
	}
	return t
}

// Histogram returns the named log-scale histogram, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Reset zeroes every instrument (the instruments stay registered, so
// pointers held by callers remain valid).
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.reset()
	}
	for _, t := range r.timers {
		t.ns.Store(0)
		t.count.Store(0)
	}
	for _, h := range r.hists {
		h.reset()
	}
}

// Entry is one instrument value in a snapshot.
type Entry struct {
	Name  string
	Value int64
}

// Snapshot returns all instrument values sorted by name. Timers expand
// to two entries, "<name>.ns" (total nanoseconds) and "<name>.count",
// read as one coherent pair (Timer.Snapshot). Histograms expand to
// five: ".ns", ".count", and the nanosecond quantile estimates ".p50",
// ".p90", ".p99". A histogram's entries come from one bucket snapshot,
// but across different instruments the snapshot is not a consistent
// cut — observations racing with Snapshot may appear in one instrument
// and not another.
func (r *Registry) Snapshot() []Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Entry, 0, len(r.counters)+2*len(r.timers)+5*len(r.hists))
	for name, c := range r.counters {
		out = append(out, Entry{name, c.Load()})
	}
	for name, t := range r.timers {
		total, count := t.Snapshot()
		out = append(out,
			Entry{name + ".count", count},
			Entry{name + ".ns", int64(total)},
		)
	}
	for name, h := range r.hists {
		counts := h.Counts()
		var total int64
		for _, c := range counts {
			total += c
		}
		out = append(out,
			Entry{name + ".count", total},
			Entry{name + ".ns", int64(h.Total())},
			Entry{name + ".p50", int64(quantileOf(counts, total, 0.50))},
			Entry{name + ".p90", int64(quantileOf(counts, total, 0.90))},
			Entry{name + ".p99", int64(quantileOf(counts, total, 0.99))},
		)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// durationEntry reports whether a snapshot entry holds nanoseconds and
// should render as a duration, returning the display name.
func durationEntry(name string) (string, bool) {
	if n := len(name); n > 3 && name[n-3:] == ".ns" {
		return name[:n-3] + ".total", true
	}
	for _, suf := range [...]string{".p50", ".p90", ".p99"} {
		if n := len(name); n > 4 && name[n-4:] == suf {
			return name, true
		}
	}
	return name, false
}

// Fprint writes the snapshot as aligned "name value" lines. Timer and
// histogram totals and quantiles are rendered as durations for
// readability.
func (r *Registry) Fprint(w io.Writer) error {
	for _, e := range r.Snapshot() {
		var err error
		if name, isDur := durationEntry(e.Name); isDur {
			_, err = fmt.Fprintf(w, "%-44s %v\n", name, time.Duration(e.Value))
		} else {
			_, err = fmt.Fprintf(w, "%-44s %d\n", e.Name, e.Value)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// CounterValue, TimerValue, and HistogramValue are the typed entries of
// an Export.
type (
	CounterValue struct {
		Name  string
		Value int64
	}
	TimerValue struct {
		Name    string
		TotalNS int64
		Count   int64
	}
	HistogramValue struct {
		Name  string
		SumNS int64
		Count int64
		// Buckets holds the per-bucket counts (index = significant bits
		// of the nanosecond value; see Histogram).
		Buckets [HistBuckets]int64
	}
)

// Export is a typed snapshot of a registry for exposition formats
// (Prometheus text, run manifests) that need more structure than the
// flat Snapshot entries. Each slice is sorted by name.
type Export struct {
	Counters   []CounterValue
	Timers     []TimerValue
	Histograms []HistogramValue
}

// Export returns a typed snapshot of every instrument.
func (r *Registry) Export() Export {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ex Export
	for name, c := range r.counters {
		ex.Counters = append(ex.Counters, CounterValue{name, c.Load()})
	}
	for name, t := range r.timers {
		total, count := t.Snapshot()
		ex.Timers = append(ex.Timers, TimerValue{name, int64(total), count})
	}
	for name, h := range r.hists {
		hv := HistogramValue{Name: name, SumNS: int64(h.Total()), Buckets: h.Counts()}
		for _, c := range hv.Buckets {
			hv.Count += c
		}
		ex.Histograms = append(ex.Histograms, hv)
	}
	sort.Slice(ex.Counters, func(i, j int) bool { return ex.Counters[i].Name < ex.Counters[j].Name })
	sort.Slice(ex.Timers, func(i, j int) bool { return ex.Timers[i].Name < ex.Timers[j].Name })
	sort.Slice(ex.Histograms, func(i, j int) bool { return ex.Histograms[i].Name < ex.Histograms[j].Name })
	return ex
}

// Default is the process-wide registry used by the package-level
// helpers; the analysis packages register their instruments here.
var Default = NewRegistry()

// C returns a counter from the Default registry.
func C(name string) *Counter { return Default.Counter(name) }

// T returns a timer from the Default registry.
func T(name string) *Timer { return Default.Timer(name) }

// H returns a histogram from the Default registry.
func H(name string) *Histogram { return Default.Histogram(name) }

// Reset zeroes the Default registry (test helper).
func Reset() { Default.Reset() }

// Fprint dumps the Default registry.
func Fprint(w io.Writer) error { return Default.Fprint(w) }
