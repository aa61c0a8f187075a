package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/backward"
	"repro/internal/model"
	"repro/internal/randgraph"
	"repro/internal/sched"
	"repro/internal/waters"
)

// tieCase is one analysis of the tie and greedy-locality corpus.
type tieCase struct {
	name string
	a    *Analysis
	sink model.TaskID
}

// tieCorpus returns WATERS graphs under Lemma 5, Dürr, all-LET and with
// enlarged buffers, layered fusion graphs shaped like the fusion-dense
// benchmark's, and a fan of identical sources whose pairs all tie (more
// of them than maxTies).
func tieCorpus(t *testing.T) []tieCase {
	t.Helper()
	var out []tieCase
	for trial := 0; trial < 24; trial++ {
		g, sink := multiChainWorkload(t, 1300+int64(trial))
		name := fmt.Sprintf("waters %d", trial)
		switch trial % 4 {
		case 1:
			bw := backward.NewAnalyzer(g, sched.Analyze(g, sched.NonPreemptiveFP), backward.Duerr)
			out = append(out, tieCase{name + " Dürr", NewWithBackward(g, bw), sink})
			continue
		case 2:
			for i := 0; i < g.NumTasks(); i++ {
				g.Task(model.TaskID(i)).Sem = model.LET
			}
			name += " LET"
		case 3:
			rng := rand.New(rand.NewSource(int64(trial)))
			for _, e := range g.Edges() {
				if rng.Intn(3) == 0 {
					if err := g.SetBuffer(e.Src, e.Dst, 2+rng.Intn(3)); err != nil {
						t.Fatal(err)
					}
				}
			}
			name += " buffered"
		}
		a, err := New(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, tieCase{name, a, sink})
	}
	rng := rand.New(rand.NewSource(31))
	for layered := 0; layered < 6; {
		g, err := randgraph.Layered([]int{4, 4, 5, 5, 5}, 3, randgraph.Config{ECUs: 4, StimulusSources: true}, rng)
		if err != nil {
			t.Fatal(err)
		}
		waters.Populate(g, rng)
		a, err := New(g)
		if err != nil {
			continue
		}
		out = append(out, tieCase{fmt.Sprintf("layered %d", layered), a, g.Sinks()[0]})
		layered++
	}
	g := model.NewGraph()
	ecu := g.AddECU("e", model.Compute)
	x := g.AddTask(model.Task{Name: "x", WCET: ms, BCET: ms, Period: 10 * ms, Prio: 0, ECU: ecu})
	sink := g.AddTask(model.Task{Name: "sink", WCET: ms, BCET: ms, Period: 10 * ms, Prio: 1, ECU: ecu})
	if err := g.AddEdge(x, sink); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10; k++ {
		s := g.AddTask(model.Task{Name: fmt.Sprintf("s%d", k), Period: 10 * ms, ECU: model.NoECU})
		if err := g.AddEdge(s, x); err != nil {
			t.Fatal(err)
		}
	}
	a, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, tieCase{"fan", a, sink})
}

// TestDescentTiesMatchDisparity pins the tied ranks the descent keeps
// to the pairs attaining the bound: on every graph of tieCorpus, for
// both methods, serial and parallel descents at the production block
// cap and at a cap of 4, and DisparityBound itself, the ties are the
// ranks at which Disparity's Pairs attain its Bound, ascending, or
// their first maxTies when there are more. It fails on a corpus without
// a multi-way tie or without one over maxTies.
func TestDescentTiesMatchDisparity(t *testing.T) {
	var multi, capped int
	for _, c := range tieCorpus(t) {
		ev := c.a.pairEvalFor(c.sink, 0)
		for _, m := range []Method{PDiff, SDiff} {
			all, err := c.a.Disparity(c.sink, m, 0)
			if err != nil {
				t.Fatalf("%s %v: %v", c.name, m, err)
			}
			var want []int
			for r, pb := range all.Pairs {
				if pb.Bound == all.Bound {
					want = append(want, r)
				}
			}
			if len(want) >= 2 {
				multi++
			}
			if len(want) > maxTies {
				capped++
				want = want[:maxTies]
			}
			for _, cap := range []int{subtreeRectCap, 4} {
				for _, parallel := range []bool{false, true} {
					got := ev.boundSubtree(m, ev.idx.NumChains(), cap, parallel, noCutoff)
					if got.err != nil {
						t.Fatalf("%s %v cap=%d parallel=%v: %v", c.name, m, cap, parallel, got.err)
					}
					if got.bound != all.Bound || got.rank != all.ArgMax || !slices.Equal(got.ties, want) {
						t.Errorf("%s %v cap=%d parallel=%v: descent %v at rank %d, ties %v; Disparity %v at rank %d, ties %v",
							c.name, m, cap, parallel, got.bound, got.rank, got.ties, all.Bound, all.ArgMax, want)
					}
				}
			}
			td, err := c.a.DisparityBound(c.sink, m, 0)
			if err != nil {
				t.Fatalf("%s %v: %v", c.name, m, err)
			}
			if !slices.Equal(td.ties, want) {
				t.Errorf("%s %v: DisparityBound ties %v, Disparity's %v", c.name, m, td.ties, want)
			}
		}
	}
	if multi == 0 || capped == 0 {
		t.Fatalf("vacuous corpus: %d multi-way ties, %d over maxTies", multi, capped)
	}
}

// TestGreedyRoundsAreLocal replays every round of OptimizeTaskGreedy on
// tieCorpus with an uncut descent per round and checks what the greedy
// decides without one. Each round's buffer leaves the bound of every
// pair that keepsBound names unchanged, pair by pair, on the analysis
// the greedy builds for the round; every round the greedy decides from
// its ties would have descended to a bound ≥ the incumbent; and the
// greedy's result equals the replay's. It fails on a corpus without a
// tie-decided round or without a round that wins.
func TestGreedyRoundsAreLocal(t *testing.T) {
	const maxRounds = 6
	var kept, decided, won int
	for _, c := range tieCorpus(t) {
		got, err := c.a.OptimizeTaskGreedy(c.sink, 0, maxRounds)
		if err != nil {
			t.Fatalf("%s: greedy: %v", c.name, err)
		}
		ev := c.a.pairEvalFor(c.sink, 0)
		td, err := c.a.DisparityBound(c.sink, SDiff, 0)
		if err != nil {
			t.Fatal(err)
		}
		cur, g, after := c.a, c.a.g, td.Bound
		var plans []*BufferPlan
		for round := 0; round < maxRounds && td.ArgMax >= 0; round++ {
			worst := td.Pairs[td.ArgMax]
			plan, err := cur.Optimize(worst.Lambda, worst.Nu)
			if err != nil || plan.L <= 0 {
				break
			}
			next, err := cur.withPlan(g, plan, c.sink, 0)
			if err != nil {
				t.Fatal(err)
			}
			was, err := cur.Disparity(c.sink, SDiff, 0)
			if err != nil {
				t.Fatal(err)
			}
			is, err := next.Disparity(c.sink, SDiff, 0)
			if err != nil {
				t.Fatal(err)
			}
			for r, pb := range was.Pairs {
				if !ev.keepsBound(r, plan.Edge) {
					continue
				}
				kept++
				if is.Pairs[r].Bound != pb.Bound {
					t.Errorf("%s round %d: buffer on %v moved pair %d from %v to %v, yet neither chain starts with it",
						c.name, round, plan.Edge, r, pb.Bound, is.Pairs[r].Bound)
				}
			}
			nextTd, err := next.DisparityBound(c.sink, SDiff, 0)
			if err != nil {
				t.Fatal(err)
			}
			if slices.ContainsFunc(td.ties, func(r int) bool { return ev.keepsBound(r, plan.Edge) }) {
				decided++
				if nextTd.Bound < after {
					t.Errorf("%s round %d: decided lost from the ties %v, but its descent gives %v < %v",
						c.name, round, td.ties, nextTd.Bound, after)
				}
			}
			if nextTd.Bound >= after {
				break
			}
			won++
			plans = append(plans, plan)
			cur, g, after, td = next, next.g, nextTd.Bound, nextTd
		}
		if got.After != after || len(got.Plans) != len(plans) {
			t.Errorf("%s: greedy %v after %d plans, replay %v after %d", c.name, got.After, len(got.Plans), after, len(plans))
			continue
		}
		for i := range plans {
			if *got.Plans[i] != *plans[i] {
				t.Errorf("%s: plan %d = %+v, replay %+v", c.name, i, *got.Plans[i], *plans[i])
			}
		}
	}
	if kept == 0 || decided == 0 || won == 0 {
		t.Fatalf("vacuous corpus: %d kept pairs, %d tie-decided rounds, %d won rounds", kept, decided, won)
	}
	t.Logf("%d tie-decided rounds, %d won rounds, %d kept pairs checked", decided, won, kept)
}
