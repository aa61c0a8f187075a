package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndTimer(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.count")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("a.count") != c {
		t.Error("Counter not idempotent")
	}
	h := r.Histogram("a.time")
	h.Observe(3 * time.Millisecond)
	h.Observe(2 * time.Millisecond)
	if h.Count() != 2 || h.Total() != 5*time.Millisecond {
		t.Errorf("histogram = %d obs / %v, want 2 / 5ms", h.Count(), h.Total())
	}
	stop := h.Start()
	stop()
	if h.Count() != 3 {
		t.Errorf("Start/stop did not record: count = %d", h.Count())
	}
}

func TestSnapshotSortedAndReset(t *testing.T) {
	r := NewRegistry()
	r.Counter("z").Add(1)
	r.Counter("a").Add(2)
	r.Histogram("m").Observe(time.Second)
	snap := r.Snapshot()
	var names []string
	for _, e := range snap {
		names = append(names, e.Name)
	}
	want := []string{"a", "m.count", "m.ns", "m.p50", "m.p90", "m.p99", "z"}
	if len(names) != len(want) {
		t.Fatalf("snapshot names = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("snapshot names = %v, want %v", names, want)
		}
	}
	r.Reset()
	for _, e := range r.Snapshot() {
		if e.Value != 0 {
			t.Errorf("after Reset, %s = %d", e.Name, e.Value)
		}
	}
}

func TestFprint(t *testing.T) {
	r := NewRegistry()
	r.Counter("graphs.generated").Add(7)
	r.Histogram("sweep.point").Observe(1500 * time.Millisecond)
	var sb strings.Builder
	if err := r.Fprint(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"graphs.generated", "7", "sweep.point.count", "sweep.point.total", "1.5s"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("shared").Inc()
				r.Histogram("shared.time").Observe(time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Load(); got != 8000 {
		t.Errorf("concurrent counter = %d, want 8000", got)
	}
	if got := r.Histogram("shared.time").Count(); got != 8000 {
		t.Errorf("concurrent histogram count = %d, want 8000", got)
	}
}
