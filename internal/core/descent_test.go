package core

import (
	"math/rand"
	"testing"

	"repro/internal/model"
)

// TestDescentMatchesReference pins boundSubtree, the only pair search
// DisparityBound runs, to DisparityReference on WATERS graphs (every
// 5th all-LET, every 7th with enlarged buffers): the same bound and the
// same first-attaining row-major rank, which is the reference's ArgMax.
// Each graph runs at the production block cap and at a cap of 4 that
// forces deep splits and many cross-block ties, both serially and with
// the blocks on all CPUs — under -race the latter is the data-race test
// of the parallel evaluation. It also pins the pair accounting the
// decision record and the repository benchmark read: every
// boundSubtree call and every DisparityBound call moves
// core.pairs.bounded + core.pairs.pruned + core.pairs.subtree_pruned
// by exactly NumPairs, and every Disparity call moves
// core.pairs.bounded by exactly NumPairs.
func TestDescentMatchesReference(t *testing.T) {
	// accounted is the sum the three pair counters must grow by.
	accounted := func() int64 {
		return pairsBounded.Load() + pairsPruned.Load() + pairsSubtreePruned.Load()
	}
	for trial := 0; trial < 60; trial++ {
		g, sink := multiChainWorkload(t, 500+int64(trial))
		if trial%5 == 1 {
			for i := 0; i < g.NumTasks(); i++ {
				g.Task(model.TaskID(i)).Sem = model.LET
			}
		}
		if trial%7 == 2 {
			rng := rand.New(rand.NewSource(int64(trial)))
			for _, e := range g.Edges() {
				if rng.Intn(3) == 0 {
					if err := g.SetBuffer(e.Src, e.Dst, 2+rng.Intn(3)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		a, err := New(g)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, m := range []Method{PDiff, SDiff} {
			want, err := a.DisparityReference(sink, m, 0)
			if err != nil {
				t.Fatalf("trial %d %v: reference: %v", trial, m, err)
			}
			ev := a.pairEvalFor(sink, 0)
			n := ev.idx.NumChains()
			numPairs := int64(want.NumPairs)
			for _, cap := range []int{subtreeRectCap, 4} {
				for _, parallel := range []bool{false, true} {
					before := accounted()
					got := ev.boundSubtree(m, n, cap, parallel)
					if got.err != nil {
						t.Fatalf("trial %d %v cap=%d parallel=%v: %v", trial, m, cap, parallel, got.err)
					}
					if got.bound != want.Bound || got.rank != want.ArgMax {
						t.Errorf("trial %d %v cap=%d parallel=%v: descent %v at rank %d, reference %v at rank %d",
							trial, m, cap, parallel, got.bound, got.rank, want.Bound, want.ArgMax)
					}
					if d := accounted() - before; d != numPairs {
						t.Errorf("trial %d %v cap=%d parallel=%v: pair counters moved %d, want NumPairs %d",
							trial, m, cap, parallel, d, numPairs)
					}
				}
			}
			before := accounted()
			if _, err := a.DisparityBound(sink, m, 0); err != nil {
				t.Fatalf("trial %d %v: DisparityBound: %v", trial, m, err)
			}
			if d := accounted() - before; d != numPairs {
				t.Errorf("trial %d %v: DisparityBound moved the pair counters %d, want NumPairs %d", trial, m, d, numPairs)
			}
			bounded := pairsBounded.Load()
			if _, err := a.Disparity(sink, m, 0); err != nil {
				t.Fatalf("trial %d %v: Disparity: %v", trial, m, err)
			}
			if d := pairsBounded.Load() - bounded; d != numPairs {
				t.Errorf("trial %d %v: Disparity moved core.pairs.bounded %d, want NumPairs %d", trial, m, d, numPairs)
			}
		}
	}
}
