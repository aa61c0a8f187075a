package core

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/chains"
	"repro/internal/model"
	"repro/internal/randgraph"
	"repro/internal/sched"
	"repro/internal/waters"
)

// multiChainWorkload builds one schedulable multi-chain WATERS workload
// and returns it with its sink.
func multiChainWorkload(t *testing.T, seed int64) (*model.Graph, model.TaskID) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for attempt := 0; attempt < 200; attempt++ {
		n := 8 + rng.Intn(8)
		g, err := randgraph.GNM(n, 2*n, randgraph.DefaultConfig(), rng)
		if err != nil {
			t.Fatal(err)
		}
		waters.Populate(g, rng)
		if res := sched.Analyze(g, sched.NonPreemptiveFP); !res.Schedulable {
			continue
		}
		sink := g.Sinks()[0]
		ps, err := chains.Enumerate(g, sink, 0)
		if err != nil || len(ps) < 2 {
			continue
		}
		return g, sink
	}
	t.Fatal("no usable workload found")
	return nil, 0
}

// TestConcurrentLookupsMatchSequential hammers one shared Analysis from
// many goroutines with interleaved task-level, pairwise, and
// backward-bound lookups, and checks every returned value against a
// second Analysis queried sequentially. Run under -race this covers the
// per-Analysis trie tables, which concurrent callers build and share.
func TestConcurrentLookupsMatchSequential(t *testing.T) {
	g, sink := multiChainWorkload(t, 1234)
	shared, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := chains.Enumerate(g, sink, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Sequential ground truth, computed before any concurrent access.
	wantP, err := plain.Disparity(sink, PDiff, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantS, err := plain.Disparity(sink, SDiff, 0)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for iter := 0; iter < 40; iter++ {
				switch rng.Intn(4) {
				case 0:
					td, err := shared.Disparity(sink, PDiff, 0)
					if err != nil {
						errc <- err
						return
					}
					if td.Bound != wantP.Bound || len(td.Pairs) != len(wantP.Pairs) {
						t.Errorf("concurrent PDiff = %v (%d pairs), want %v (%d pairs)",
							td.Bound, len(td.Pairs), wantP.Bound, len(wantP.Pairs))
					}
				case 1:
					td, err := shared.DisparityBound(sink, SDiff, 0)
					if err != nil {
						errc <- err
						return
					}
					if td.Bound != wantS.Bound {
						t.Errorf("concurrent SDiff = %v, want %v", td.Bound, wantS.Bound)
					}
				case 2:
					i, j := rng.Intn(len(ps)), rng.Intn(len(ps))
					if i == j {
						continue
					}
					pb, err := shared.PairDisparity(ps[i], ps[j], PDiff)
					if err != nil {
						errc <- err
						return
					}
					want, err := plain.pairTheorem1(ps[i], ps[j])
					if err != nil {
						errc <- err
						return
					}
					if pb.Bound != want.Bound {
						t.Errorf("concurrent pair bound %v, want %v", pb.Bound, want.Bound)
					}
				default:
					pi := ps[rng.Intn(len(ps))]
					if w, want := shared.Backward().WCBT(pi), plain.Backward().WCBT(pi); w != want {
						t.Errorf("concurrent WCBT = %v, want %v", w, want)
					}
					if b, want := shared.Backward().BCBT(pi), plain.Backward().BCBT(pi); b != want {
						t.Errorf("concurrent BCBT = %v, want %v", b, want)
					}
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
