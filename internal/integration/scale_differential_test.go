package integration

import (
	"math"
	"math/rand"
	"slices"
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
// verify-scale`). The c=1 fast test reads path masks with one bit per
// shared task, a task at two or more trie nodes (chains.Index.
// SharedTasks). The fleet-tier corpora are in-trees, where no task is
// shared: their masks are one all-zero word per node and every pair is
// c = 1. TestScaleSharedMasksMatchReference draws graphs with more
// than 64 shared tasks, so it is the tier that runs multi-word bitsets
// (internal/bitset), which the small-graph corpus in
// analysis_differential_test.go never reaches. The contract is
// unchanged — BIT-IDENTICAL results against core.DisparityReference.

// sharedByCount is the reference shared-task set of an index, found
// independently of the mask builder by counting the trie nodes of
// every task: the tasks at two or more nodes, in ID order.
func sharedByCount(idx *chains.Index, numTasks int) []model.TaskID {
	count := make([]int, numTasks)
	for n := int32(0); n < int32(idx.NumNodes()); n++ {
		count[idx.NodeTask(n)]++
	}
	var shared []model.TaskID
	for t, c := range count {
		if c >= 2 {
			shared = append(shared, model.TaskID(t))
		}
	}
	return shared
}

// fleetScaleConfigs are fleet shapes whose task count (topology + CAN
// message tasks) lands in the 65–150 range: task IDs past one machine
// word, and few enough tasks to run the reference pipeline 100 times.
// genFleet asserts the range so a topology change cannot silently
// shrink the corpus to 64 tasks or fewer.
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

// genFleet builds one schedulable fleet-tier workload with populateFleet
// and asserts its task count lies in the 65–150 tier range.
func genFleet(t *testing.T, cfg randgraph.FleetConfig, rng *rand.Rand) (*model.Graph, model.TaskID) {
	t.Helper()
	g, fusion := populateFleet(t, cfg, rng)
	if n := g.NumTasks(); n <= 64 || n > 150 {
		t.Fatalf("fleet config %+v yields %d tasks, want 65–150", cfg, n)
	}
	return g, fusion
}

// populateFleet builds one schedulable fleet workload: topology from
// cfg, budgeted WATERS timing (schedulable by construction), cross-ECU
// edges split over CAN. Mirrors disparity.GenerateFleet, but takes the
// trial rng so the corpus is seeded like the other differentials.
func populateFleet(t *testing.T, cfg randgraph.FleetConfig, rng *rand.Rand) (*model.Graph, model.TaskID) {
	t.Helper()
	g, fusion, err := randgraph.Fleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	budgetFleet(t, g, rng)
	return g, fusion
}

// budgetFleet gives a fleet topology budgeted WATERS timing and splits
// its cross-ECU edges over CAN.
func budgetFleet(t *testing.T, g *model.Graph, rng *rand.Rand) {
	t.Helper()
	waters.PopulateBudget(g, rng, 20*timeu.Millisecond, 0.5)
	bus := can.Bus{Rate: can.Baud500k, Format: can.Standard, Payload: 8}
	if _, _, err := bus.Split(g, "can0"); err != nil {
		t.Fatal(err)
	}
}

// TestScaleFastPathMatchesReference is the fleet-tier analog of
// TestAnalysisFastPathMatchesReference: 100 seeded >64-task workloads,
// every pair of both methods compared field by field against the
// reference pipeline, plus the DisparityBound argmax. Each graph's
// index must actually have built its masks, one bit per shared task
// in at least one word — a silently skipped table would make this test
// vacuously pass through the decomposition fallback.
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
		shared := sharedByCount(idx, g.NumTasks())
		if masks, stride := idx.PathMasks(); masks == nil || stride != max(bitset.Words(len(shared)), 1) {
			t.Fatalf("trial %d: PathMasks stride %d over %d shared tasks (skipped=%v), want stride %d",
				trial, stride, len(shared), masks == nil, max(bitset.Words(len(shared)), 1))
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
// ~2100-task fleet workload, every leaf's mask row must equal the
// shared tasks on its root walk (both the walk and the shared set
// computed independently of the mask build) — none, as no task of this
// in-tree sits at two trie nodes — and the analysis must be
// bit-identical whether the c=1 test runs on those masks or on the
// decomposition fallback (forced by zeroing the mask word budget,
// which must skip even this one-word table).
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
	shared := sharedByCount(idx, g.NumTasks())
	if want := max(bitset.Words(len(shared)), 1); stride != want {
		t.Fatalf("mask stride %d, want %d for %d shared tasks", stride, want, len(shared))
	}
	if len(shared) != 0 {
		t.Fatalf("default fleet has %d tasks at two trie nodes, want none (an in-tree)", len(shared))
	}
	ref := make([]uint64, stride)
	for i := 0; i < idx.NumChains(); i++ {
		clear(ref)
		for n := idx.Leaf(i); n >= 0; n = idx.NodeParent(n) {
			if b, ok := slices.BinarySearch(shared, idx.NodeTask(n)); ok {
				bitset.Set(ref, b)
			}
		}
		if row := bitset.Row(masks, stride, int(idx.Leaf(i))); !slices.Equal(row, ref) {
			t.Fatalf("leaf %d mask %#x, independent walk %#x", i, row, ref)
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
	skipped := metrics.C("chains.masks.skipped")
	before := skipped.Load()
	a2, err := core.New(g)
	if err != nil {
		t.Fatal(err)
	}
	noMasks, err := a2.DisparityBound(fusion, core.SDiff, 0)
	if err != nil {
		t.Fatal(err)
	}
	if skipped.Load() == before {
		t.Fatal("a zero mask budget did not skip the fleet's masks: the fallback never ran")
	}
	if withMasks.Bound != noMasks.Bound || withMasks.NumPairs != noMasks.NumPairs {
		t.Fatalf("mask c=1 test changed the bound: with masks %v/%d pairs, fallback %v/%d",
			withMasks.Bound, withMasks.NumPairs, noMasks.Bound, noMasks.NumPairs)
	}
	if len(withMasks.Pairs) == 1 && len(noMasks.Pairs) == 1 {
		comparePairExact(t, 0, "fleet/maskfallback", withMasks.Pairs[0], noMasks.Pairs[0])
	}
}

// TestScaleSubtreePruneMatchesFlat is the fleet-tier descent check at
// the production scale: on the default ~2100-task fleet, DisparityBound
// (the subtree descent) must equal the reference pipeline field by
// field — bound, pair count and argmax pair — for both methods, and the
// pruning must actually engage (the block-skip counter must absorb most
// of the pair volume, otherwise the fleet benchmark's speedup claim is
// untested here). TestScaleFastPathMatchesReference covers the
// >64-task corpus and core.TestDescentMatchesReference the forced
// block caps and parallel evaluation.
func TestScaleSubtreePruneMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	g, fusion, err := randgraph.Fleet(randgraph.DefaultFleet())
	if err != nil {
		t.Fatal(err)
	}
	waters.PopulateBudget(g, rng, 20*timeu.Millisecond, 0.5)
	subtreePruned := metrics.C("core.pairs.subtree_pruned")
	before := subtreePruned.Load()
	for _, m := range []core.Method{core.PDiff, core.SDiff} {
		a, err := core.New(g)
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.DisparityBound(fusion, m, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, err := a.DisparityReference(fusion, m, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got.Bound != want.Bound || got.NumPairs != len(want.Pairs) || got.Truncated {
			t.Fatalf("fleet %v: descent bound %v/%d pairs (truncated=%v), reference %v/%d",
				m, got.Bound, got.NumPairs, got.Truncated, want.Bound, len(want.Pairs))
		}
		if want.ArgMax >= 0 {
			comparePairExact(t, -1, m.String()+"/fleet", got.Pairs[0], want.Pairs[want.ArgMax])
		}
	}
	skipped := subtreePruned.Load() - before
	if total := int64(chains.NumPairs(288)); skipped < total/2 {
		t.Errorf("default fleet skipped only %d pairs wholesale across both methods, want > %d", skipped, total/2)
	}
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

// sharedChainCap is the chain cap of the shared-task corpus: room for
// descents over more than 4096 pairs, which run their blocks in
// parallel, while the reference pipeline still bounds every pair.
const sharedChainCap = 300

// sharedGNM draws 70–150-task GNM graphs (TestIndexMultiWordMasks'
// family), with budgeted WATERS timing, until one has a task whose
// complete chain trie at sharedChainCap holds more than 64 shared
// tasks, and returns it with the highest-ID such task. Its stimulus
// sources are scattered over the task IDs, so mask bits and task IDs
// differ.
func sharedGNM(t *testing.T, rng *rand.Rand) (*model.Graph, model.TaskID) {
	t.Helper()
	for attempt := 0; attempt < 500; attempt++ {
		n := 70 + rng.Intn(80)
		g, err := randgraph.GNM(n, 3*n/2, randgraph.DefaultConfig(), rng)
		if err != nil {
			t.Fatal(err)
		}
		waters.PopulateBudget(g, rng, 20*timeu.Millisecond, 0.5)
		for task := model.TaskID(n - 1); task >= 0; task-- {
			idx := chains.NewIndex(g, task, sharedChainCap)
			if !idx.Truncated() && len(sharedByCount(idx, n)) > 64 {
				return g, task
			}
		}
	}
	t.Fatal("no GNM graph with a task over 64 shared tasks in 500 attempts")
	return nil, 0
}

// bypassFleet builds a fleet workload whose gateways also reach fusion
// through a second task on the central ECU: every task upstream of a
// gateway has two paths to fusion, so it sits at two trie nodes, and
// every stimulus heads two chains.
func bypassFleet(t *testing.T, cfg randgraph.FleetConfig, rng *rand.Rand) (*model.Graph, model.TaskID) {
	t.Helper()
	g, fusion, err := randgraph.Fleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bypass := g.AddTask(model.Task{Name: "bypass", Period: timeu.Millisecond, ECU: g.Task(fusion).ECU})
	for _, gw := range slices.Clone(g.Predecessors(fusion)) {
		if err := g.AddEdge(gw, bypass); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge(bypass, fusion); err != nil {
		t.Fatal(err)
	}
	budgetFleet(t, g, rng)
	return g, fusion
}

// TestScaleSharedMasksMatchReference is the multi-word tier of the
// analysis differential: on graphs of more than 64 tasks with more
// than 64 shared tasks — GNM graphs and fleets with a second path into
// fusion, perturbed like the other corpora — Disparity must equal the
// reference pipeline pair by pair, field by field, and DisparityBound
// its bound and worst pair, for both methods and both backward
// analyzers. The corpus must run the descent both serially and in
// parallel, and must hold S-diff pairs with c ≥ 2 and pairs sharing a
// stimulus head, so the mask bits behind the c = 1 test, the split
// sums and the shared-head exclusion all carry weight.
func TestScaleSharedMasksMatchReference(t *testing.T) {
	trials := 10
	if testing.Short() {
		trials = 4
	}
	fleets := []randgraph.FleetConfig{
		{Zones: 2, ECUsPerZone: 2, PipesPerECU: 2, ProcDepth: 8, TailLen: 1},
		{Zones: 2, ECUsPerZone: 4, PipesPerECU: 12, ProcDepth: 2, TailLen: 0},
		{Zones: 3, ECUsPerZone: 2, PipesPerECU: 3, ProcDepth: 4, TailLen: 2},
	}
	parallelRuns := metrics.C("core.bound.parallel")
	var serial, parallel, multiC, stimulusHeads int
	rng := rand.New(rand.NewSource(94))
	for trial := 0; trial < trials; trial++ {
		var g *model.Graph
		var task model.TaskID
		if trial%2 == 0 {
			g, task = sharedGNM(t, rng)
		} else {
			g, task = bypassFleet(t, fleets[trial/2%len(fleets)], rng)
		}
		varyCorpus(t, g, trial, rng)
		idx := chains.NewIndex(g, task, sharedChainCap)
		shared := sharedByCount(idx, g.NumTasks())
		_, stride := idx.PathMasks()
		if idx.Truncated() || len(shared) <= 64 || stride != bitset.Words(len(shared)) {
			t.Fatalf("trial %d: %d tasks, %d shared (truncated=%v): mask stride %d, want > 64 shared in %d words",
				trial, g.NumTasks(), len(shared), idx.Truncated(), stride, bitset.Words(len(shared)))
		}
		analyses := newAnalyses(t, g)
		if analyses == nil {
			t.Fatalf("trial %d: budgeted workload rejected", trial)
		}
		for label, a := range analyses {
			for _, m := range []core.Method{core.PDiff, core.SDiff} {
				name := label + "/" + m.String()
				want, err := a.DisparityReference(task, m, sharedChainCap)
				if err != nil {
					t.Fatalf("trial %d %s: reference: %v", trial, name, err)
				}
				got, err := a.Disparity(task, m, sharedChainCap)
				if err != nil {
					t.Fatalf("trial %d %s: Disparity: %v", trial, name, err)
				}
				if got.Truncated || got.NumPairs != len(want.Pairs) {
					t.Fatalf("trial %d %s: fast path %d pairs (truncated=%v), reference %d",
						trial, name, got.NumPairs, got.Truncated, len(want.Pairs))
				}
				compareTask(t, trial, name, got, want)
				for i := range got.Pairs {
					comparePairExact(t, trial, name, got.Pairs[i], want.Pairs[i])
				}
				before := parallelRuns.Load()
				bd, err := a.DisparityBound(task, m, sharedChainCap)
				if err != nil {
					t.Fatalf("trial %d %s: DisparityBound: %v", trial, name, err)
				}
				if ran := parallelRuns.Load() != before; ran != (bd.NumPairs >= 1<<12) {
					t.Fatalf("trial %d %s: DisparityBound over %d pairs ran in parallel: %v", trial, name, bd.NumPairs, ran)
				} else if ran {
					parallel++
				} else {
					serial++
				}
				if bd.Bound != want.Bound || bd.NumPairs != len(want.Pairs) || bd.Truncated || len(bd.Pairs) != 1 {
					t.Fatalf("trial %d %s: DisparityBound %v over %d pairs (%d carried, truncated=%v), reference %v over %d",
						trial, name, bd.Bound, bd.NumPairs, len(bd.Pairs), bd.Truncated, want.Bound, len(want.Pairs))
				}
				comparePairExact(t, trial, name+"/bound", bd.Pairs[0], want.Pairs[want.ArgMax])
				if m != core.SDiff || label != "np" {
					continue
				}
				for _, pb := range want.Pairs {
					d, err := chains.Decompose(pb.Lambda, pb.Nu)
					if err != nil {
						t.Fatal(err)
					}
					if d.C() >= 2 {
						multiC++
					}
					if d.SameHead && g.Task(pb.Lambda.Head()).ECU == model.NoECU {
						stimulusHeads++
					}
				}
			}
		}
	}
	if serial == 0 || parallel == 0 || multiC == 0 || stimulusHeads == 0 {
		t.Fatalf("vacuous corpus: %d serial and %d parallel descents, %d c ≥ 2 pairs, %d pairs sharing a stimulus head",
			serial, parallel, multiC, stimulusHeads)
	}
	t.Logf("%d serial and %d parallel descents, %d c ≥ 2 pairs, %d pairs sharing a stimulus head",
		serial, parallel, multiC, stimulusHeads)
}
