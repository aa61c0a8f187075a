// Package metrics is a minimal process-wide registry of named counters
// and log-scale duration histograms for the analysis engine and the
// experiment harness.
//
// The instruments are cheap enough to leave enabled unconditionally
// (atomic adds on the hot paths, one mutex-guarded map lookup at
// package-variable initialization), deterministic counters plus
// wall-clock stage histograms, and carry no dependencies, so every
// layer — the scheduling fixed point, the pair descent, the sweep
// workers — can record what it did without threading a context through
// the whole call tree. Every view of the registry — the -metrics dump,
// the Prometheus exposition, run manifests, the decision record — is
// built from one Export. CLI frontends dump the registry after a run
// (behind a default-off flag, keeping golden outputs stable); tests
// reset it.
//
// A counter is one atomic word. The hot loops — the pair descent, the
// pair streams, the WCRT fixed point — count in locals and add once per
// descent, stream or task, so concurrent sweep workers seldom write the
// same counter.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing (well, Add accepts any delta)
// atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// reset zeroes the counter.
func (c *Counter) reset() { c.v.Store(0) }

// Registry is a named collection of instruments. The zero value is not
// usable; use NewRegistry or the package-level Default.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
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
	for _, h := range r.hists {
		h.reset()
	}
}

// Entry is one instrument value in a snapshot.
type Entry struct {
	Name  string
	Value int64
}

// Snapshot flattens Export into name-sorted entries: a counter is one
// entry, a histogram five — ".count", ".ns" (total nanoseconds), and
// the nanosecond quantile estimates ".p50", ".p90", ".p99".
func (r *Registry) Snapshot() []Entry {
	ex := r.Export()
	out := make([]Entry, 0, len(ex.Counters)+5*len(ex.Histograms))
	for _, c := range ex.Counters {
		out = append(out, Entry{c.Name, c.Value})
	}
	for _, h := range ex.Histograms {
		out = append(out,
			Entry{h.Name + ".count", h.Count},
			Entry{h.Name + ".ns", h.SumNS},
			Entry{h.Name + ".p50", int64(h.P50)},
			Entry{h.Name + ".p90", int64(h.P90)},
			Entry{h.Name + ".p99", int64(h.P99)},
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

// Fprint writes the snapshot as aligned "name value" lines. Histogram
// totals and quantiles are rendered as durations for readability.
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

// CounterValue and HistogramValue are the typed entries of an Export.
type (
	CounterValue struct {
		Name  string
		Value int64
	}
	HistogramValue struct {
		Name  string
		SumNS int64
		Count int64
		// P50, P90 and P99 are quantile estimates (Histogram.Quantile)
		// computed from Buckets, so they agree with Count.
		P50, P90, P99 time.Duration
		// Buckets holds the per-bucket counts (index = significant bits
		// of the nanosecond value; see Histogram).
		Buckets [HistBuckets]int64
	}
)

// Export is a typed snapshot of a registry, each slice sorted by name.
// A histogram's values come from one bucket snapshot, but across
// instruments the export is not a consistent cut: observations racing
// with Export may appear in one instrument and not another.
type Export struct {
	Counters   []CounterValue
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
	for name, h := range r.hists {
		hv := HistogramValue{Name: name, SumNS: int64(h.Total()), Buckets: h.Counts()}
		for _, c := range hv.Buckets {
			hv.Count += c
		}
		hv.P50 = quantileOf(hv.Buckets, hv.Count, 0.50)
		hv.P90 = quantileOf(hv.Buckets, hv.Count, 0.90)
		hv.P99 = quantileOf(hv.Buckets, hv.Count, 0.99)
		ex.Histograms = append(ex.Histograms, hv)
	}
	sort.Slice(ex.Counters, func(i, j int) bool { return ex.Counters[i].Name < ex.Counters[j].Name })
	sort.Slice(ex.Histograms, func(i, j int) bool { return ex.Histograms[i].Name < ex.Histograms[j].Name })
	return ex
}

// CounterValues returns every exported counter's value keyed by name.
func (ex Export) CounterValues() map[string]int64 {
	m := make(map[string]int64, len(ex.Counters))
	for _, c := range ex.Counters {
		m[c.Name] = c.Value
	}
	return m
}

// Default is the process-wide registry used by the package-level
// helpers; the analysis packages register their instruments here.
var Default = NewRegistry()

// C returns a counter from the Default registry.
func C(name string) *Counter { return Default.Counter(name) }

// H returns a histogram from the Default registry.
func H(name string) *Histogram { return Default.Histogram(name) }

// Reset zeroes the Default registry (test helper).
func Reset() { Default.Reset() }

// Fprint dumps the Default registry.
func Fprint(w io.Writer) error { return Default.Fprint(w) }
