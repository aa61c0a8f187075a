package core

import (
	"errors"
	"testing"

	"repro/internal/backward"
	"repro/internal/chains"
	"repro/internal/model"
)

func latencyAnalysis(t *testing.T) (*model.Graph, *Analysis) {
	t.Helper()
	g := model.Fig2Graph()
	a, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	return g, a
}

func sameTaskLatency(t *testing.T, got, want *TaskLatency) {
	t.Helper()
	if got.Bound != want.Bound {
		t.Errorf("%v of task %d: bound %v != %v", got.Metric, got.Task, got.Bound, want.Bound)
	}
	if got.NumChains != want.NumChains {
		t.Errorf("%v of task %d: NumChains %d != %d", got.Metric, got.Task, got.NumChains, want.NumChains)
	}
	if !got.ArgMax.Equal(want.ArgMax) {
		t.Errorf("%v of task %d: ArgMax %v != %v", got.Metric, got.Task, got.ArgMax, want.ArgMax)
	}
	if len(got.PerSource) != len(want.PerSource) {
		t.Fatalf("%v of task %d: PerSource %v != %v", got.Metric, got.Task, got.PerSource, want.PerSource)
	}
	for i := range got.PerSource {
		if got.PerSource[i] != want.PerSource[i] {
			t.Errorf("%v of task %d: PerSource[%d] %v != %v", got.Metric, got.Task, i,
				got.PerSource[i], want.PerSource[i])
		}
	}
}

// TestLatencyMatchesReference pins the trie fast path to the legacy
// enumerate-and-sum pipeline on every task and metric of the fixture,
// including a repeated call on the now-built trie tables.
func TestLatencyMatchesReference(t *testing.T) {
	g, a := latencyAnalysis(t)
	for ti := 0; ti < g.NumTasks(); ti++ {
		task := model.TaskID(ti)
		for _, m := range backward.Latencies() {
			ref, err := a.LatencyReference(task, m, 0)
			if err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < 2; pass++ {
				got, err := a.Latency(task, m, 0)
				if err != nil {
					t.Fatal(err)
				}
				sameTaskLatency(t, got, ref)
			}
		}
	}
}

// TestLatencySourceAccessor checks Source against PerSource and that the
// task-level bound is the maximum per-source bound.
func TestLatencySourceAccessor(t *testing.T) {
	g, plain := latencyAnalysis(t)
	sink := g.Sinks()[0]
	tl, err := plain.Latency(sink, backward.LatencyMDA, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.PerSource) == 0 {
		t.Fatal("no per-source slices")
	}
	var maxSrc = tl.PerSource[0].Bound
	for _, s := range tl.PerSource {
		got, ok := tl.Source(s.Source)
		if !ok || got != s.Bound {
			t.Errorf("Source(%d) = %v,%v; want %v,true", s.Source, got, ok, s.Bound)
		}
		if s.Bound > maxSrc {
			maxSrc = s.Bound
		}
	}
	if tl.Bound != maxSrc {
		t.Errorf("Bound %v != max per-source %v", tl.Bound, maxSrc)
	}
	if _, ok := tl.Source(model.TaskID(g.NumTasks())); ok {
		t.Error("Source of unknown task reported ok")
	}
}

// TestLatencyTruncated drives the enumeration cap: the fast path
// truncates with the flag set, the reference fails loudly.
func TestLatencyTruncated(t *testing.T) {
	g, plain := latencyAnalysis(t)
	sink := g.Sinks()[0]
	full, err := plain.Latency(sink, backward.LatencyMRT, 0)
	if err != nil {
		t.Fatal(err)
	}
	if full.NumChains < 2 {
		t.Fatalf("fixture sink has %d chains; need ≥ 2", full.NumChains)
	}
	capped, err := plain.Latency(sink, backward.LatencyMRT, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !capped.Truncated {
		t.Error("capped fast path not flagged Truncated")
	}
	if capped.NumChains >= full.NumChains {
		t.Errorf("capped NumChains %d not below full %d", capped.NumChains, full.NumChains)
	}
	if _, err := plain.LatencyReference(sink, backward.LatencyMRT, 1); !errors.Is(err, chains.ErrTooManyChains) {
		t.Errorf("capped reference error = %v, want ErrTooManyChains", err)
	}
}
