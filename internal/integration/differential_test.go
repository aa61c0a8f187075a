package integration

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/exhaustive"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/timeu"
	"repro/internal/waters"
)

// The differential harnesses pin each analysis shortcut to an
// executable specification: results are BIT-IDENTICAL — not close, not
// within epsilon, equal. All analysis arithmetic is exact int64
// nanoseconds, so a single differing bit means a shortcut changed what
// is computed, not just how.

// comparePair checks one pair result against the reference.
func comparePair(t *testing.T, trial int, label string, got, want *core.PairBound) {
	t.Helper()
	if got.Bound != want.Bound || got.X1 != want.X1 || got.Y1 != want.Y1 ||
		got.SameHead != want.SameHead ||
		got.WindowLambda != want.WindowLambda || got.WindowNu != want.WindowNu {
		t.Errorf("trial %d %s: pair %v|%v = {B=%v x=%d y=%d Wλ=%v Wν=%v}, reference {B=%v x=%d y=%d Wλ=%v Wν=%v}",
			trial, label, got.Lambda, got.Nu,
			got.Bound, got.X1, got.Y1, got.WindowLambda, got.WindowNu,
			want.Bound, want.X1, want.Y1, want.WindowLambda, want.WindowNu)
	}
}

// compareTask checks one task-level result field by field.
func compareTask(t *testing.T, trial int, label string, got, want *core.TaskDisparity) {
	t.Helper()
	if got.Bound != want.Bound {
		t.Errorf("trial %d %s: bound %v, reference %v", trial, label, got.Bound, want.Bound)
	}
	if len(got.Pairs) != len(want.Pairs) {
		t.Errorf("trial %d %s: %d pairs, reference %d", trial, label, len(got.Pairs), len(want.Pairs))
		return
	}
	if got.ArgMax != want.ArgMax {
		t.Errorf("trial %d %s: argmax %d, reference %d", trial, label, got.ArgMax, want.ArgMax)
	}
	for i := range got.Pairs {
		comparePair(t, trial, label, got.Pairs[i], want.Pairs[i])
	}
}

// referenceGreedy is the executable specification of
// core.Analysis.OptimizeTaskGreedy: every buffered clone gets a fresh
// core.New analysis (its own WCRT fixed point and chain trie) and every
// round recomputes its worst pair with DisparityBound. The optimizer
// instead inherits the parent's WCRT result, trie and worst pair.
func referenceGreedy(g *model.Graph, task model.TaskID, maxChains, maxRounds int) (*core.GreedyResult, error) {
	a, err := core.New(g)
	if err != nil {
		return nil, err
	}
	base, err := a.DisparityBound(task, core.SDiff, maxChains)
	if err != nil {
		return nil, err
	}
	res := &core.GreedyResult{Before: base.Bound, After: base.Bound, Graph: g.Clone(), Truncated: base.Truncated, Cause: base.Cause}
	if base.ArgMax < 0 {
		return res, nil
	}
	cur := a
	for round := 0; round < maxRounds; round++ {
		td, err := cur.DisparityBound(task, core.SDiff, maxChains)
		if err != nil {
			return nil, err
		}
		worst := td.Pairs[td.ArgMax]
		plan, err := cur.Optimize(worst.Lambda, worst.Nu)
		if err != nil || plan.L <= 0 {
			break
		}
		next := res.Graph.Clone()
		if err := plan.Apply(next); err != nil {
			return nil, err
		}
		nextA, err := core.New(next)
		if err != nil {
			break
		}
		nextTd, err := nextA.DisparityBound(task, core.SDiff, maxChains)
		if err != nil {
			return nil, err
		}
		if nextTd.Bound >= res.After {
			break
		}
		res.Graph, res.After = next, nextTd.Bound
		res.Plans = append(res.Plans, plan)
		cur = nextA
	}
	return res, nil
}

// TestDifferentialGreedyVsOracle sweeps the 200-workload WATERS corpus
// (with its LET and buffered variants) and checks OptimizeTaskGreedy
// against referenceGreedy bit for bit: Before, After, every applied
// plan, and every edge buffer of the optimized graph. The corpus must
// include multi-round runs, or the inherited worst pair would go
// unchecked. Run it under -race.
func TestDifferentialGreedyVsOracle(t *testing.T) {
	const maxRounds = 4
	trials := 200
	if testing.Short() {
		trials = 60
	}
	rng := rand.New(rand.NewSource(77))
	multiRound := 0
	for trial := 0; trial < trials; trial++ {
		g := genWaters(t, rng, 6+rng.Intn(9))
		varyCorpus(t, g, trial, rng)
		a, err := core.New(g)
		if err != nil {
			continue // the analysis rejects the graph
		}
		sink := g.Sinks()[0]
		got, err := a.OptimizeTaskGreedy(sink, 0, maxRounds)
		if err != nil {
			t.Fatalf("trial %d: greedy: %v", trial, err)
		}
		want, err := referenceGreedy(g, sink, 0, maxRounds)
		if err != nil {
			t.Fatalf("trial %d: reference greedy: %v", trial, err)
		}
		if got.Before != want.Before || got.After != want.After || got.Truncated != want.Truncated {
			t.Errorf("trial %d: greedy %v→%v (truncated %v), reference %v→%v (truncated %v)",
				trial, got.Before, got.After, got.Truncated, want.Before, want.After, want.Truncated)
		}
		if len(got.Plans) != len(want.Plans) {
			t.Errorf("trial %d: greedy applied %d plans, reference %d", trial, len(got.Plans), len(want.Plans))
			continue
		}
		for i := range got.Plans {
			if *got.Plans[i] != *want.Plans[i] {
				t.Errorf("trial %d: plan %d = %+v, reference %+v", trial, i, *got.Plans[i], *want.Plans[i])
			}
		}
		gotEdges, wantEdges := got.Graph.Edges(), want.Graph.Edges()
		if len(gotEdges) != len(wantEdges) {
			t.Fatalf("trial %d: optimized graph has %d edges, reference %d", trial, len(gotEdges), len(wantEdges))
		}
		for i := range gotEdges {
			if gotEdges[i] != wantEdges[i] {
				t.Errorf("trial %d: edge %d = %+v, reference %+v", trial, i, gotEdges[i], wantEdges[i])
			}
		}
		if len(got.Plans) >= 2 {
			multiRound++
		}
	}
	if multiRound == 0 {
		t.Fatal("no workload ran more than one greedy round")
	}
}

// TestDifferentialCachedVsUncached sweeps the same corpus and checks
// that an Analysis reused across queries — its interned pair-evaluation
// tables already built by earlier calls — answers every query exactly as
// a fresh Analysis does: P-diff and S-diff task analyses with their full
// pair breakdowns (each read twice), DisparityBound, and Algorithm 1
// (single and greedy).
func TestDifferentialCachedVsUncached(t *testing.T) {
	trials := 200
	if testing.Short() {
		trials = 60
	}
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < trials; trial++ {
		g := genWaters(t, rng, 6+rng.Intn(9))
		varyCorpus(t, g, trial, rng)
		warm, err := core.New(g)
		if err != nil {
			continue // the analysis rejects the graph
		}
		fresh := func() *core.Analysis {
			a, err := core.New(g)
			if err != nil {
				t.Fatalf("trial %d: second analysis failed where the first succeeded: %v", trial, err)
			}
			return a
		}
		sink := g.Sinks()[0]

		for _, m := range []core.Method{core.PDiff, core.SDiff} {
			want, errW := fresh().Disparity(sink, m, 0)
			for pass := 0; pass < 2; pass++ {
				got, errG := warm.Disparity(sink, m, 0)
				if (errG == nil) != (errW == nil) {
					t.Fatalf("trial %d method %v: warm err %v, fresh err %v", trial, m, errG, errW)
				}
				if errW == nil {
					compareTask(t, trial, m.String(), got, want)
				}
			}
			gotB, errG := warm.DisparityBound(sink, m, 0)
			wantB, errW := fresh().DisparityBound(sink, m, 0)
			if (errG == nil) != (errW == nil) {
				t.Fatalf("trial %d method %v: warm bound err %v, fresh err %v", trial, m, errG, errW)
			}
			if errW == nil && (gotB.Bound != wantB.Bound || gotB.ArgMax != wantB.ArgMax) {
				t.Errorf("trial %d method %v: warm bound %v (argmax %d), fresh %v (argmax %d)",
					trial, m, gotB.Bound, gotB.ArgMax, wantB.Bound, wantB.ArgMax)
			}
		}

		planC, tdC, errC := warm.OptimizeTask(sink, 0)
		planP, tdP, errP := fresh().OptimizeTask(sink, 0)
		if (errC == nil) != (errP == nil) {
			t.Fatalf("trial %d: warm optimize err %v, fresh %v", trial, errC, errP)
		}
		if errC == nil {
			if *planC != *planP {
				t.Errorf("trial %d: warm plan %+v, fresh %+v", trial, planC, planP)
			}
			compareTask(t, trial, "optimize", tdC, tdP)
		}
		gC, errGC := warm.OptimizeTaskGreedy(sink, 0, 4)
		gP, errGP := fresh().OptimizeTaskGreedy(sink, 0, 4)
		if (errGC == nil) != (errGP == nil) {
			t.Fatalf("trial %d: warm greedy err %v, fresh %v", trial, errGC, errGP)
		}
		if errGC == nil {
			if gC.Before != gP.Before || gC.After != gP.After || len(gC.Plans) != len(gP.Plans) {
				t.Errorf("trial %d: warm greedy (%v→%v, %d plans), fresh (%v→%v, %d plans)",
					trial, gC.Before, gC.After, len(gC.Plans), gP.Before, gP.After, len(gP.Plans))
			}
		}
	}
}

// TestDifferentialBoundsContainSimulation simulates a subset of the
// corpus and checks that the bounds stay sound: the observed
// disparity never exceeds min(P-diff, S-diff), and on the greedily
// buffered graph never exceeds that graph's re-analyzed bound.
func TestDifferentialBoundsContainSimulation(t *testing.T) {
	trials := 10
	if testing.Short() {
		trials = 4
	}
	rng := rand.New(rand.NewSource(78))
	for trial := 0; trial < trials; trial++ {
		g := genWaters(t, rng, 6+rng.Intn(9))
		waters.RandomOffsets(g, rng)
		a, err := core.New(g)
		if err != nil {
			continue
		}
		sink := g.Sinks()[0]
		pd, err := a.Disparity(sink, core.PDiff, 0)
		if err != nil {
			continue
		}
		sd, err := a.Disparity(sink, core.SDiff, 0)
		if err != nil || len(pd.Pairs) == 0 {
			continue
		}
		bound := timeu.Min(pd.Bound, sd.Bound)
		simulate := func(gr *model.Graph) timeu.Time {
			obs := sim.NewDisparityObserver(timeu.Second, sink)
			if _, err := sim.Run(gr, sim.Config{
				Horizon:   simHorizon,
				Exec:      execModels[trial%len(execModels)],
				Seed:      int64(trial) * 13,
				Observers: []sim.Observer{obs},
			}); err != nil {
				t.Fatal(err)
			}
			return obs.Max(sink)
		}
		if got := simulate(g); got > bound {
			t.Errorf("trial %d: observed disparity %v exceeds bound %v", trial, got, bound)
		}
		greedy, err := a.OptimizeTaskGreedy(sink, 0, 4)
		if err != nil || len(greedy.Plans) == 0 {
			continue
		}
		if got := simulate(greedy.Graph); got > greedy.After {
			t.Errorf("trial %d: buffered disparity %v exceeds Theorem-3 bound %v", trial, got, greedy.After)
		}
	}
}

// smallFusion is the exhaustive-search fixture: two sources at ms-scale
// periods feeding one fusion task on a single ECU — small enough that
// the full offset × execution-corner grid is enumerable.
func smallFusion(t *testing.T, p1, p2 timeu.Time) (*model.Graph, model.TaskID) {
	t.Helper()
	const ms = timeu.Millisecond
	g := model.NewGraph()
	ecu := g.AddECU("e", model.Compute)
	s1 := g.AddTask(model.Task{Name: "s1", Period: p1, ECU: model.NoECU})
	s2 := g.AddTask(model.Task{Name: "s2", Period: p2, ECU: model.NoECU})
	a := g.AddTask(model.Task{Name: "a", WCET: 1 * ms, BCET: ms / 2, Period: p1, Prio: 0, ECU: ecu})
	b := g.AddTask(model.Task{Name: "b", WCET: 1 * ms, BCET: ms / 2, Period: p2, Prio: 1, ECU: ecu})
	c := g.AddTask(model.Task{Name: "c", WCET: 1 * ms, BCET: ms / 2, Period: p2, Prio: 2, ECU: ecu})
	for _, e := range [][2]model.TaskID{{s1, a}, {a, c}, {s2, b}, {b, c}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g, c
}

// TestDifferentialExhaustiveWitness closes the loop on small graphs: the
// exhaustive offset sweep's worst-case witness must stay below the
// S-diff bound.
func TestDifferentialExhaustiveWitness(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep skipped in -short mode")
	}
	const ms = timeu.Millisecond
	for _, periods := range [][2]timeu.Time{
		{4 * ms, 6 * ms},
		{5 * ms, 7 * ms},
		{3 * ms, 9 * ms},
	} {
		g, fusion := smallFusion(t, periods[0], periods[1])
		a, err := core.New(g)
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.Disparity(fusion, core.SDiff, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := exhaustive.Search(g, fusion, exhaustive.Config{OffsetStep: ms})
		if err != nil {
			t.Fatal(err)
		}
		if res.Disparity > got.Bound {
			t.Errorf("periods %v/%v: exhaustive witness %v exceeds S-diff bound %v",
				periods[0], periods[1], res.Disparity, got.Bound)
		}
	}
}
