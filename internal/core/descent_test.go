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
// of the parallel evaluation.
func TestDescentMatchesReference(t *testing.T) {
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
			for _, cap := range []int{subtreeRectCap, 4} {
				for _, parallel := range []bool{false, true} {
					got := ev.boundSubtree(m, n, cap, parallel)
					if got.err != nil {
						t.Fatalf("trial %d %v cap=%d parallel=%v: %v", trial, m, cap, parallel, got.err)
					}
					if got.bound != want.Bound || got.rank != want.ArgMax {
						t.Errorf("trial %d %v cap=%d parallel=%v: descent %v at rank %d, reference %v at rank %d",
							trial, m, cap, parallel, got.bound, got.rank, want.Bound, want.ArgMax)
					}
				}
			}
		}
	}
}
