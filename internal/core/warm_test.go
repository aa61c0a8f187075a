package core

import (
	"testing"

	"repro/internal/model"
)

// TestCachedMatchesUncachedOptimize covers Algorithm 1 and the greedy
// loop on an Analysis whose interned pair-evaluation tables are already
// warm: every answer must equal the one a fresh Analysis gives.
func TestCachedMatchesUncachedOptimize(t *testing.T) {
	fresh := func(g *model.Graph) *Analysis {
		t.Helper()
		a, err := New(g)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	for seed := int64(0); seed < 6; seed++ {
		g, sink := multiChainWorkload(t, 100+seed)
		warm := fresh(g)
		for _, m := range []Method{PDiff, SDiff} {
			if _, err := warm.Disparity(sink, m, 0); err != nil {
				t.Fatal(err)
			}
		}
		for pass := 0; pass < 2; pass++ {
			pc, tdc, errC := warm.OptimizeTask(sink, 0)
			pp, tdp, errP := fresh(g).OptimizeTask(sink, 0)
			if (errC == nil) != (errP == nil) {
				t.Fatalf("seed %d pass %d: optimize errors diverge: %v vs %v", seed, pass, errC, errP)
			}
			if errC == nil {
				if *pc != *pp {
					t.Errorf("seed %d pass %d: warm plan %+v != fresh %+v", seed, pass, *pc, *pp)
				}
				if tdc.Bound != tdp.Bound {
					t.Errorf("seed %d pass %d: warm disparity %v != fresh %v", seed, pass, tdc.Bound, tdp.Bound)
				}
			}
			gc, errC2 := warm.OptimizeTaskGreedy(sink, 0, 4)
			gp, errP2 := fresh(g).OptimizeTaskGreedy(sink, 0, 4)
			if (errC2 == nil) != (errP2 == nil) {
				t.Fatalf("seed %d pass %d: greedy errors diverge: %v vs %v", seed, pass, errC2, errP2)
			}
			if errC2 != nil {
				continue
			}
			if gc.Before != gp.Before || gc.After != gp.After || len(gc.Plans) != len(gp.Plans) {
				t.Errorf("seed %d pass %d: warm greedy (%v→%v, %d plans) != fresh (%v→%v, %d plans)",
					seed, pass, gc.Before, gc.After, len(gc.Plans), gp.Before, gp.After, len(gp.Plans))
				continue
			}
			for i := range gc.Plans {
				if *gc.Plans[i] != *gp.Plans[i] {
					t.Errorf("seed %d pass %d: warm greedy plan %d = %+v, fresh %+v", seed, pass, i, *gc.Plans[i], *gp.Plans[i])
				}
			}
		}
	}
}
