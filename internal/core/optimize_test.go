package core

import (
	"testing"

	"repro/internal/model"
	"repro/internal/timeu"
)

func fig4Analysis(t *testing.T, t3Period timeu.Time) (*model.Graph, *Analysis) {
	t.Helper()
	g := model.Fig4Graph(t3Period)
	a, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	return g, a
}

// Hand-computed ground truth for Fig4Graph(30ms):
//
//	R(t3)=6 R(t4)=9 R(t5)=9 (ms)
//	λ = t1→t3→t5: W=40, B=−6 ; ν = t2→t4→t5: W=60, B=−6
//	S-diff = 66ms; windows [−40,6] and [−60,6]; midpoints −17 vs −27;
//	Algorithm 1 shifts λ: cap = ⌊10/10⌋+1 = 2, L = 10ms, after = 56ms.
func TestOptimizeFig4(t *testing.T) {
	g, a := fig4Analysis(t, 30*ms)
	la := chainByNames(t, g, "t1", "t3", "t5")
	nu := chainByNames(t, g, "t2", "t4", "t5")

	pb, err := a.PairDisparity(la, nu, SDiff)
	if err != nil {
		t.Fatal(err)
	}
	if pb.Bound != 66*ms {
		t.Fatalf("S-diff = %v, want 66ms", pb.Bound)
	}

	plan, err := a.Optimize(la, nu)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.ShiftedLambda {
		t.Error("λ (later window) should be shifted")
	}
	t1, _ := g.TaskByName("t1")
	t3, _ := g.TaskByName("t3")
	if plan.Edge.Src != t1.ID || plan.Edge.Dst != t3.ID {
		t.Errorf("plan edge = %v, want t1->t3", plan.Edge)
	}
	if plan.Cap != 2 || plan.L != 10*ms {
		t.Errorf("cap=%d L=%v, want 2 and 10ms", plan.Cap, plan.L)
	}
	if plan.Before != 66*ms || plan.After != 56*ms {
		t.Errorf("before/after = %v/%v, want 66ms/56ms", plan.Before, plan.After)
	}
}

func TestOptimizeSymmetric(t *testing.T) {
	// Swapping the argument order shifts the other role but the same
	// physical chain.
	g, a := fig4Analysis(t, 30*ms)
	la := chainByNames(t, g, "t2", "t4", "t5")
	nu := chainByNames(t, g, "t1", "t3", "t5")
	plan, err := a.Optimize(la, nu)
	if err != nil {
		t.Fatal(err)
	}
	if plan.ShiftedLambda {
		t.Error("ν holds the later window here")
	}
	t1, _ := g.TaskByName("t1")
	t3, _ := g.TaskByName("t3")
	if plan.Edge.Src != t1.ID || plan.Edge.Dst != t3.ID {
		t.Errorf("plan edge = %v, want t1->t3", plan.Edge)
	}
	if plan.L != 10*ms || plan.After != 56*ms {
		t.Errorf("L=%v after=%v, want 10ms/56ms", plan.L, plan.After)
	}
}

func TestOptimizeApplyAndReanalyze(t *testing.T) {
	g, a := fig4Analysis(t, 30*ms)
	la := chainByNames(t, g, "t1", "t3", "t5")
	nu := chainByNames(t, g, "t2", "t4", "t5")
	plan, err := a.Optimize(la, nu)
	if err != nil {
		t.Fatal(err)
	}

	mod := g.Clone()
	if err := plan.Apply(mod); err != nil {
		t.Fatal(err)
	}
	if mod.Buffer(plan.Edge.Src, plan.Edge.Dst) != plan.Cap {
		t.Error("Apply did not set the capacity")
	}
	// Re-analysis on the buffered graph: λ's window shifts by L (Lemma 6),
	// so the recomputed S-diff equals the Theorem-3 prediction here.
	a2, err := New(mod)
	if err != nil {
		t.Fatal(err)
	}
	pb2, err := a2.PairDisparity(la, nu, SDiff)
	if err != nil {
		t.Fatal(err)
	}
	if pb2.Bound != plan.After {
		t.Errorf("re-analyzed S-diff = %v, Theorem 3 predicted %v", pb2.Bound, plan.After)
	}
}

func TestOptimizeAlreadyAligned(t *testing.T) {
	// Identical chains' parameters: midpoint difference below one period
	// yields cap 1 (no change) and L = 0.
	g := model.NewGraph()
	ecu := g.AddECU("e", model.Compute)
	s1 := g.AddTask(model.Task{Name: "s1", Period: 10 * ms, ECU: model.NoECU})
	s2 := g.AddTask(model.Task{Name: "s2", Period: 10 * ms, ECU: model.NoECU})
	a1 := g.AddTask(model.Task{Name: "a1", WCET: ms, BCET: ms, Period: 10 * ms, Prio: 0, ECU: ecu})
	a2 := g.AddTask(model.Task{Name: "a2", WCET: ms, BCET: ms, Period: 10 * ms, Prio: 1, ECU: ecu})
	sink := g.AddTask(model.Task{Name: "sink", WCET: ms, BCET: ms, Period: 10 * ms, Prio: 2, ECU: ecu})
	for _, e := range [][2]model.TaskID{{s1, a1}, {s2, a2}, {a1, sink}, {a2, sink}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	an, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := an.Optimize(model.Chain{s1, a1, sink}, model.Chain{s2, a2, sink})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Cap != 1 || plan.L != 0 || plan.After != plan.Before {
		t.Errorf("plan = %+v, want cap 1, L 0, no change", plan)
	}
}

func TestOptimizeTask(t *testing.T) {
	g, a := fig4Analysis(t, 30*ms)
	t5, _ := g.TaskByName("t5")
	plan, td, err := a.OptimizeTask(t5.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if td.Bound != 66*ms {
		t.Errorf("task S-diff = %v, want 66ms", td.Bound)
	}
	if plan.After != 56*ms {
		t.Errorf("optimized bound = %v, want 56ms", plan.After)
	}
}

func TestOptimizeTaskNoPairs(t *testing.T) {
	g, a := fig4Analysis(t, 30*ms)
	t3, _ := g.TaskByName("t3")
	if _, _, err := a.OptimizeTask(t3.ID, 0); err == nil {
		t.Error("single-chain task accepted for optimization")
	}
}

func TestOptimizeHeadlessChain(t *testing.T) {
	// A stripped chain of length 1 cannot be buffered.
	g := model.NewGraph()
	ecu := g.AddECU("e", model.Compute)
	x := g.AddTask(model.Task{Name: "x", WCET: ms, BCET: ms, Period: 100 * ms, Prio: 0, ECU: ecu})
	s := g.AddTask(model.Task{Name: "s", Period: 10 * ms, ECU: model.NoECU})
	aa := g.AddTask(model.Task{Name: "a", WCET: ms, BCET: ms, Period: 10 * ms, Prio: 1, ECU: ecu})
	if err := g.AddEdge(s, aa); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(aa, x); err != nil {
		t.Fatal(err)
	}
	an, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	// λ = {x} has no head edge; its window is [0,0], to the right of ν's.
	if _, err := an.Optimize(model.Chain{x}, model.Chain{s, aa, x}); err == nil {
		t.Error("length-1 chain accepted for buffering")
	}
}

func TestOptimizeComposesWithExistingBuffer(t *testing.T) {
	// Pre-buffer the head edge that Algorithm 1 would pick; the plan
	// must add slots on top, not reset the capacity.
	g := model.Fig4Graph(30 * ms)
	t1, _ := g.TaskByName("t1")
	t3, _ := g.TaskByName("t3")
	if err := g.SetBuffer(t1.ID, t3.ID, 2); err != nil {
		t.Fatal(err)
	}
	a, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	la := chainByNames(t, g, "t1", "t3", "t5")
	nu := chainByNames(t, g, "t2", "t4", "t5")
	plan, err := a.Optimize(la, nu)
	if err != nil {
		t.Fatal(err)
	}
	// The capacity-2 buffer already shifted λ's window by 10ms (the full
	// misalignment from TestOptimizeFig4), so no further slots help.
	if plan.Cap != 2 || plan.L != 0 {
		t.Errorf("plan = cap %d L %v; want existing cap 2 and L 0", plan.Cap, plan.L)
	}
	// S-diff on the pre-buffered graph equals the optimized bound 56ms.
	pb, err := a.PairDisparity(la, nu, SDiff)
	if err != nil {
		t.Fatal(err)
	}
	if pb.Bound != 56*ms {
		t.Errorf("pre-buffered S-diff = %v, want 56ms", pb.Bound)
	}
}

func TestOptimizeTaskGreedy(t *testing.T) {
	g, a := fig4Analysis(t, 30*ms)
	t5, _ := g.TaskByName("t5")
	res, err := a.OptimizeTaskGreedy(t5.ID, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Before != 66*ms {
		t.Errorf("Before = %v, want 66ms", res.Before)
	}
	if res.After > res.Before {
		t.Errorf("greedy optimization worsened: %v -> %v", res.Before, res.After)
	}
	if res.After >= res.Before && len(res.Plans) > 0 {
		t.Error("plans applied without improvement")
	}
	// The single-pair result is achievable, so greedy must do at least
	// as well as one round of Algorithm 1 (56ms).
	if res.After > 56*ms {
		t.Errorf("greedy After = %v, want ≤ 56ms", res.After)
	}
	// The original graph is untouched.
	t1, _ := g.TaskByName("t1")
	t3, _ := g.TaskByName("t3")
	if g.Buffer(t1.ID, t3.ID) != 1 {
		t.Error("greedy modified the original graph")
	}
	// The reported graph carries the buffers of the reported plans.
	if len(res.Plans) > 0 {
		p := res.Plans[len(res.Plans)-1]
		if res.Graph.Buffer(p.Edge.Src, p.Edge.Dst) != p.Cap {
			t.Error("result graph does not match the last plan")
		}
	}
}

func TestOptimizeTaskGreedyNoPairs(t *testing.T) {
	g, a := fig4Analysis(t, 30*ms)
	t3, _ := g.TaskByName("t3")
	res, err := a.OptimizeTaskGreedy(t3.ID, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Plans) != 0 || res.Before != res.After {
		t.Errorf("single-chain task should yield an empty plan: %+v", res)
	}
}

// TestFig4FrequencyParadox reproduces the §IV observation: raising τ3's
// frequency (30ms -> 10ms) does not reduce the disparity bound of τ5,
// because the worst case is governed by WCBT on one chain vs BCBT on the
// other.
func TestFig4FrequencyParadox(t *testing.T) {
	bound := func(period timeu.Time) timeu.Time {
		g, a := fig4Analysis(t, period)
		t5, _ := g.TaskByName("t5")
		td, err := a.Disparity(t5.ID, SDiff, 0)
		if err != nil {
			t.Fatal(err)
		}
		return td.Bound
	}
	slow := bound(30 * ms)
	fast := bound(10 * ms)
	if fast < slow {
		t.Errorf("raising τ3's frequency reduced the bound (%v -> %v); the paper's example says it should not", slow, fast)
	}
}

// TestOptimizeTaskMatchesDisparityArgMax pins OptimizeTask, which takes
// its worst pair from DisparityBound, to Algorithm 1 on the worst pair
// of the full-detail Disparity, on every graph of tieCorpus: the same
// plan or the same failure, and a TaskDisparity holding only that pair
// at Disparity's bound.
func TestOptimizeTaskMatchesDisparityArgMax(t *testing.T) {
	for _, c := range tieCorpus(t) {
		plan, td, err := c.a.OptimizeTask(c.sink, 0)
		all, aerr := c.a.Disparity(c.sink, SDiff, 0)
		if aerr != nil {
			t.Fatalf("%s: %v", c.name, aerr)
		}
		worst := all.Pairs[all.ArgMax]
		want, werr := c.a.Optimize(worst.Lambda, worst.Nu)
		if (err != nil) != (werr != nil) {
			t.Fatalf("%s: OptimizeTask error %v, Optimize on Disparity's worst pair %v", c.name, err, werr)
		}
		if err == nil && *plan != *want {
			t.Errorf("%s: plan %+v, Optimize on Disparity's worst pair %+v", c.name, *plan, *want)
		}
		if td.Bound != all.Bound || td.ArgMax != 0 || len(td.Pairs) != 1 || !td.Pairs[0].Lambda.Equal(worst.Lambda) || !td.Pairs[0].Nu.Equal(worst.Nu) {
			t.Errorf("%s: TaskDisparity bound %v with %d pairs, want %v with the worst pair only", c.name, td.Bound, len(td.Pairs), all.Bound)
		}
	}
}
