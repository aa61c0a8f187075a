package integration

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/backward"
	"repro/internal/bitset"
	"repro/internal/can"
	"repro/internal/chains"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/randgraph"
	"repro/internal/sched"
	"repro/internal/timeu"
	"repro/internal/waters"
)

// This file is the >64-task tier of the analysis differential (`make
// verify-scale`): past one machine word the c=1 fast test runs on
// multi-word bitsets (internal/bitset) instead of single uint64 masks,
// so the small-graph corpus in analysis_differential_test.go never
// exercises that code. The contract is unchanged — BIT-IDENTICAL
// results against core.DisparityReference — on fleet-tier workloads.

// fleetScaleConfigs are fleet shapes whose task count (topology + CAN
// message tasks) lands in the 65–150 range: big enough to force
// multi-word masks, small enough to run the reference pipeline 100
// times. genFleet asserts the range so a topology change cannot
// silently shrink the corpus back under one word.
var fleetScaleConfigs = []randgraph.FleetConfig{
	{Zones: 2, ECUsPerZone: 2, PipesPerECU: 2, ProcDepth: 6, TailLen: 2},
	{Zones: 2, ECUsPerZone: 2, PipesPerECU: 3, ProcDepth: 4, TailLen: 1},
	{Zones: 3, ECUsPerZone: 2, PipesPerECU: 2, ProcDepth: 4, TailLen: 0},
	{Zones: 2, ECUsPerZone: 3, PipesPerECU: 2, ProcDepth: 4, TailLen: 2},
	{Zones: 2, ECUsPerZone: 2, PipesPerECU: 2, ProcDepth: 10, TailLen: 1},
	{Zones: 3, ECUsPerZone: 3, PipesPerECU: 2, ProcDepth: 4, TailLen: 0},
	{Zones: 4, ECUsPerZone: 2, PipesPerECU: 2, ProcDepth: 4, TailLen: 1},
	{Zones: 2, ECUsPerZone: 2, PipesPerECU: 4, ProcDepth: 6, TailLen: 0},
	{Zones: 3, ECUsPerZone: 2, PipesPerECU: 3, ProcDepth: 4, TailLen: 2},
	{Zones: 2, ECUsPerZone: 4, PipesPerECU: 2, ProcDepth: 3, TailLen: 0},
}

// genFleet builds one schedulable fleet-tier workload: topology from
// cfg, budgeted WATERS timing (schedulable by construction), cross-ECU
// edges split over CAN. Mirrors disparity.GenerateFleet, but takes the
// trial rng so the corpus is seeded like the other differentials.
func genFleet(t *testing.T, cfg randgraph.FleetConfig, rng *rand.Rand) (*model.Graph, model.TaskID) {
	t.Helper()
	g, fusion, err := randgraph.Fleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waters.PopulateBudget(g, rng, 20*timeu.Millisecond, 0.5)
	bus := can.Bus{Rate: can.Baud500k, Format: can.Standard, Payload: 8}
	if _, _, err := bus.Split(g, "can0"); err != nil {
		t.Fatal(err)
	}
	if n := g.NumTasks(); n <= 64 || n > 150 {
		t.Fatalf("fleet config %+v yields %d tasks, want 65–150", cfg, n)
	}
	return g, fusion
}

// TestScaleFastPathMatchesReference is the fleet-tier analog of
// TestAnalysisFastPathMatchesReference: 100 seeded >64-task workloads,
// every pair of both methods compared field by field against the
// reference pipeline, plus the DisparityBound argmax. Each graph's
// index must actually have built multi-word masks — a silently skipped
// table would make this test vacuously pass through the decomposition
// fallback.
func TestScaleFastPathMatchesReference(t *testing.T) {
	trials := 100
	if testing.Short() {
		trials = 20
	}
	rng := rand.New(rand.NewSource(90))
	for trial := 0; trial < trials; trial++ {
		cfg := fleetScaleConfigs[trial%len(fleetScaleConfigs)]
		g, sink := genFleet(t, cfg, rng)
		varyCorpus(t, g, trial, rng)

		idx := chains.NewIndex(g, sink, 0)
		masks, stride := idx.PathMasks()
		if masks == nil || stride < 2 {
			t.Fatalf("trial %d: PathMasks stride %d on a %d-task graph, want multi-word", trial, stride, g.NumTasks())
		}

		a, err := core.New(g)
		if err != nil {
			t.Fatalf("trial %d: budgeted fleet workload rejected: %v", trial, err)
		}
		for _, m := range []core.Method{core.PDiff, core.SDiff} {
			want, err := a.DisparityReference(sink, m, 0)
			if err != nil {
				t.Fatalf("trial %d %v: reference: %v", trial, m, err)
			}
			got, err := a.Disparity(sink, m, 0)
			if err != nil {
				t.Fatalf("trial %d %v: fast path: %v", trial, m, err)
			}
			if got.Truncated {
				t.Errorf("trial %d %v: fast path truncated where the reference enumerated fully", trial, m)
			}
			if got.NumPairs != len(want.Pairs) {
				t.Errorf("trial %d %v: fast NumPairs %d, reference %d", trial, m, got.NumPairs, len(want.Pairs))
			}
			compareTask(t, trial, m.String(), got, want)
			for i := range got.Pairs {
				comparePairExact(t, trial, m.String(), got.Pairs[i], want.Pairs[i])
			}

			bd, err := a.DisparityBound(sink, m, 0)
			if err != nil {
				t.Fatalf("trial %d %v: DisparityBound: %v", trial, m, err)
			}
			if bd.Bound != want.Bound {
				t.Errorf("trial %d %v: DisparityBound %v, reference %v", trial, m, bd.Bound, want.Bound)
			}
			if want.ArgMax >= 0 {
				if len(bd.Pairs) != 1 {
					t.Fatalf("trial %d %v: DisparityBound carried %d pairs, want 1", trial, m, len(bd.Pairs))
				}
				comparePairExact(t, trial, m.String()+"/bound", bd.Pairs[0], want.Pairs[want.ArgMax])
			}
		}
	}
}

// TestScaleExactMasksThousandTasks pins the acceptance criterion
// "PathMasks exact on a 1000-task graph" directly: on the default
// ~2100-task fleet workload, every leaf's mask row must equal the set
// of tasks on its root walk (computed independently of the prefix-OR
// build), and the analysis must be bit-identical whether the c=1 test
// runs on those masks or on the decomposition fallback (forced by
// zeroing the mask word budget).
func TestScaleExactMasksThousandTasks(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	g, fusion, err := randgraph.Fleet(randgraph.DefaultFleet())
	if err != nil {
		t.Fatal(err)
	}
	waters.PopulateBudget(g, rng, 20*timeu.Millisecond, 0.5)
	if n := g.NumTasks(); n < 1000 {
		t.Fatalf("default fleet has %d tasks, want ≥ 1000", n)
	}

	idx := chains.NewIndex(g, fusion, 0)
	if idx.Truncated() {
		t.Fatalf("default fleet index truncated (%v)", idx.Cause())
	}
	masks, stride := idx.PathMasks()
	if masks == nil {
		t.Fatal("PathMasks skipped on the default fleet workload")
	}
	if want := bitset.Words(g.NumTasks()); stride != want {
		t.Fatalf("mask stride %d, want %d for %d tasks", stride, want, g.NumTasks())
	}
	ref := make([]uint64, stride)
	for i := 0; i < idx.NumChains(); i++ {
		for w := range ref {
			ref[w] = 0
		}
		for n := idx.Leaf(i); n >= 0; n = idx.NodeParent(n) {
			bitset.Set(ref, int(idx.NodeTask(n)))
		}
		row := masks[int(idx.Leaf(i))*stride : (int(idx.Leaf(i))+1)*stride]
		for w := range ref {
			if row[w] != ref[w] {
				t.Fatalf("leaf %d mask word %d = %#x, independent walk %#x", i, w, row[w], ref[w])
			}
		}
	}

	// Same trie, masks on vs. forced decomposition fallback: the c=1
	// shortcut must be a pure optimization.
	a, err := core.New(g)
	if err != nil {
		t.Fatal(err)
	}
	withMasks, err := a.DisparityBound(fusion, core.SDiff, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func(old int) { chains.MaskBudgetWords = old }(chains.MaskBudgetWords)
	chains.MaskBudgetWords = 0
	a2, err := core.New(g)
	if err != nil {
		t.Fatal(err)
	}
	noMasks, err := a2.DisparityBound(fusion, core.SDiff, 0)
	if err != nil {
		t.Fatal(err)
	}
	if withMasks.Bound != noMasks.Bound || withMasks.NumPairs != noMasks.NumPairs {
		t.Fatalf("mask c=1 test changed the bound: with masks %v/%d pairs, fallback %v/%d",
			withMasks.Bound, withMasks.NumPairs, noMasks.Bound, noMasks.NumPairs)
	}
	if len(withMasks.Pairs) == 1 && len(noMasks.Pairs) == 1 {
		comparePairExact(t, 0, "fleet/maskfallback", withMasks.Pairs[0], noMasks.Pairs[0])
	}
}

// TestScaleSubtreePruneMatchesFlat is the fleet-tier pruning
// differential: DisparityBound with the subtree branch-and-bound
// descent on versus off, field by field, over the >64-task corpus and
// once over the default ~2100-task fleet — where it also checks against
// the reference pipeline and asserts the pruning actually engaged (the
// block-skip counter must absorb most of the pair volume, otherwise the
// fleet benchmark's speedup claim is untested here).
func TestScaleSubtreePruneMatchesFlat(t *testing.T) {
	oldPrune := core.SubtreePrune
	t.Cleanup(func() { core.SubtreePrune = oldPrune })

	trials := 30
	if testing.Short() {
		trials = 10
	}
	rng := rand.New(rand.NewSource(92))
	for trial := 0; trial < trials; trial++ {
		cfg := fleetScaleConfigs[trial%len(fleetScaleConfigs)]
		g, sink := genFleet(t, cfg, rng)
		varyCorpus(t, g, trial, rng)
		for _, m := range []core.Method{core.PDiff, core.SDiff} {
			comparePrunedFlat(t, trial, g, sink, m)
		}
	}

	// Default fleet: the production scale. Reference equality on SDiff
	// pins the whole stack (trie, descent, block bounds) to the paper
	// pipeline at the size the benchmarks quote.
	g, fusion, err := randgraph.Fleet(randgraph.DefaultFleet())
	if err != nil {
		t.Fatal(err)
	}
	waters.PopulateBudget(g, rng, 20*timeu.Millisecond, 0.5)
	subtreePruned := metrics.C("core.pairs.subtree_pruned")
	before := subtreePruned.Load()
	for _, m := range []core.Method{core.PDiff, core.SDiff} {
		pruned := comparePrunedFlat(t, -1, g, fusion, m)
		core.SubtreePrune = oldPrune
		a, err := core.New(g)
		if err != nil {
			t.Fatal(err)
		}
		want, err := a.DisparityReference(fusion, m, 0)
		if err != nil {
			t.Fatal(err)
		}
		if pruned.Bound != want.Bound || pruned.NumPairs != len(want.Pairs) {
			t.Fatalf("fleet %v: pruned bound %v/%d pairs, reference %v/%d",
				m, pruned.Bound, pruned.NumPairs, want.Bound, len(want.Pairs))
		}
		if want.ArgMax >= 0 {
			comparePairExact(t, -1, m.String()+"/fleet", pruned.Pairs[0], want.Pairs[want.ArgMax])
		}
	}
	skipped := subtreePruned.Load() - before
	if total := int64(chains.NumPairs(288)); skipped < total/2 {
		t.Errorf("default fleet skipped only %d pairs wholesale across both methods, want > %d", skipped, total/2)
	}
}

// comparePrunedFlat runs DisparityBound with the descent off then on,
// each on a fresh analysis, and requires bit-identical bounds and
// argmax pairs.
// Returns the pruned-mode result for further checks.
func comparePrunedFlat(t *testing.T, trial int, g *model.Graph, sink model.TaskID, m core.Method) *core.TaskDisparity {
	t.Helper()
	core.SubtreePrune = false
	flatA, err := core.New(g)
	if err != nil {
		t.Fatalf("trial %d: fleet workload rejected: %v", trial, err)
	}
	flat, err := flatA.DisparityBound(sink, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	core.SubtreePrune = true
	prunedA, err := core.New(g)
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := prunedA.DisparityBound(sink, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Bound != flat.Bound || pruned.NumPairs != flat.NumPairs ||
		pruned.Truncated != flat.Truncated || len(pruned.Pairs) != len(flat.Pairs) {
		t.Fatalf("trial %d %v: pruned bound %v/%d pairs, flat %v/%d",
			trial, m, pruned.Bound, pruned.NumPairs, flat.Bound, flat.NumPairs)
	}
	for i := range pruned.Pairs {
		comparePairExact(t, trial, m.String()+"/pruned", pruned.Pairs[i], flat.Pairs[i])
	}
	return pruned
}

// TestScaleSubtreeAggregates is the fleet-tier half of the aggregate
// property test (the small-graph half lives in internal/backward): on
// >64-task workloads and the default fleet trie, every node's
// SubtreeAggs envelope completed by BlockOffsets must equal the
// brute-force min/max of the exact segment bounds over its leaf range —
// 𝒲 always, ℬ exactly on LET-free graphs and within the candidate hull
// otherwise.
func TestScaleSubtreeAggregates(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	graphs := make([]*model.Graph, 0, 6)
	sinks := make([]model.TaskID, 0, 6)
	for trial := 0; trial < 5; trial++ {
		g, sink := genFleet(t, fleetScaleConfigs[trial*2%len(fleetScaleConfigs)], rng)
		varyCorpus(t, g, trial, rng)
		graphs, sinks = append(graphs, g), append(sinks, sink)
	}
	g, fusion, err := randgraph.Fleet(randgraph.DefaultFleet())
	if err != nil {
		t.Fatal(err)
	}
	waters.PopulateBudget(g, rng, 20*timeu.Millisecond, 0.5)
	graphs, sinks = append(graphs, g), append(sinks, fusion)

	for gi, g := range graphs {
		res := sched.Analyze(g, sched.NonPreemptiveFP)
		for _, method := range []backward.Method{backward.NonPreemptive, backward.Duerr} {
			an := backward.NewAnalyzer(g, res, method)
			idx, tb := an.IndexBounds(g, sinks[gi], 0)
			aggs, hasLET := tb.SubtreeAggs()
			for f := int32(0); f < int32(idx.NumNodes()); f++ {
				lo, hi := idx.LeafSpan(f)
				if lo >= hi {
					t.Fatalf("graph %d %v: empty subtree %d on a full index", gi, method, f)
				}
				wOff, bOff, bletOff := tb.BlockOffsets(f)
				minW, maxW := timeu.Time(math.MaxInt64), timeu.Time(math.MinInt64)
				minB, maxB := timeu.Time(math.MaxInt64), timeu.Time(math.MinInt64)
				for i := lo; i < hi; i++ {
					w, b := tb.Bounds(idx.Leaf(int(i)), f)
					minW, maxW = timeu.Min(minW, w), timeu.Max(maxW, w)
					minB, maxB = timeu.Min(minB, b), timeu.Max(maxB, b)
				}
				if minW != aggs[f].MinW+wOff || maxW != aggs[f].MaxW+wOff {
					t.Fatalf("graph %d %v node %d: brute 𝒲 [%v, %v], aggregate [%v, %v]",
						gi, method, f, minW, maxW, aggs[f].MinW+wOff, aggs[f].MaxW+wOff)
				}
				if !hasLET {
					if minB != aggs[f].MinB+bOff || maxB != aggs[f].MaxB+bOff {
						t.Fatalf("graph %d %v node %d: brute ℬ [%v, %v], aggregate [%v, %v]",
							gi, method, f, minB, maxB, aggs[f].MinB+bOff, aggs[f].MaxB+bOff)
					}
				} else {
					hullLo := timeu.Min(aggs[f].MinB+bOff, aggs[f].MinBLET+bletOff)
					hullHi := timeu.Max(aggs[f].MaxB+bOff, aggs[f].MaxBLET+bletOff)
					if minB < hullLo || maxB > hullHi {
						t.Fatalf("graph %d %v node %d: brute ℬ [%v, %v] escapes hull [%v, %v]",
							gi, method, f, minB, maxB, hullLo, hullHi)
					}
				}
			}
		}
	}
}
