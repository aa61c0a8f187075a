// Benchmarks regenerating the paper's evaluation, one per figure panel,
// plus micro-benchmarks for the analysis and simulation engines.
//
// The Fig6* benchmarks run a scaled-down instance of the corresponding
// experiment per iteration (fewer graphs and a shorter horizon than the
// paper's 10-minute runs — use cmd/disparity-exp -paper for full scale);
// they exist so `go test -bench` exercises and times every experiment
// code path.
package disparity_test

import (
	"bytes"
	"math/rand"
	"testing"

	disparity "repro"
	"repro/internal/chains"
	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/randgraph"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/timeu"
	"repro/internal/trace/span"
	"repro/internal/waters"
)

func benchCfg() exp.Config {
	cfg := exp.Defaults()
	cfg.GraphsPerPoint = 2
	cfg.OffsetsPerGraph = 2
	cfg.Horizon = timeu.Second
	cfg.Warmup = 200 * timeu.Millisecond
	return cfg
}

// BenchmarkFig6a regenerates the Fig. 6(a) series: Sim / P-diff / S-diff
// absolute disparity versus task count.
func BenchmarkFig6a(b *testing.B) {
	cfg := benchCfg()
	cfg.Points = []int{5, 15, 25}
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig6a(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6b regenerates the Fig. 6(b) series: incremental ratios of
// P-diff and S-diff against simulation.
func BenchmarkFig6b(b *testing.B) {
	cfg := benchCfg()
	cfg.Points = []int{5, 15, 25}
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig6b(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6c regenerates the Fig. 6(c) series: Sim / S-diff and their
// buffered counterparts on two-chain graphs.
func BenchmarkFig6c(b *testing.B) {
	cfg := benchCfg()
	cfg.Points = []int{5, 15}
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig6c(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6d regenerates the Fig. 6(d) series: incremental ratios of
// the buffered experiment.
func BenchmarkFig6d(b *testing.B) {
	cfg := benchCfg()
	cfg.Points = []int{5, 15}
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig6d(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBoundsSweep times the analysis-only sweep (P-diff, S-diff,
// greedy S-diff-B; no simulation) at the Defaults() experiment scale.
func BenchmarkBoundsSweep(b *testing.B) {
	cfg := exp.Defaults()
	for i := 0; i < b.N; i++ {
		if _, err := exp.BoundsSweep(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchGraph builds one schedulable 25-task GNM workload for the
// analysis micro-benchmarks.
func benchGraph(b *testing.B) (*disparity.Graph, disparity.TaskID) {
	b.Helper()
	for seed := int64(1); seed < 100; seed++ {
		g, err := disparity.GenerateGNM(25, 50, disparity.GenConfig{Seed: seed})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := disparity.Analyze(g); err != nil {
			continue
		}
		return g, g.Sinks()[0]
	}
	b.Fatal("no schedulable benchmark graph found")
	return nil, 0
}

// BenchmarkAnalyzePDiff times the Theorem-1 task-level analysis on a
// 25-task workload (the paper's efficiency claim: analysis is cheap
// compared to simulation).
func BenchmarkAnalyzePDiff(b *testing.B) {
	g, sink := benchGraph(b)
	a, err := disparity.Analyze(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Disparity(sink, disparity.PDiff, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeSDiff times the Theorem-2 task-level analysis.
func BenchmarkAnalyzeSDiff(b *testing.B) {
	g, sink := benchGraph(b)
	a, err := disparity.Analyze(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Disparity(sink, disparity.SDiff, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPairBounds times the trie-based analysis fast path end to
// end on a fresh analysis per iteration: build the chain index, the
// per-node bound prefix sums, and run the dominance-pruned pair loop.
// This is the per-graph analysis cost a sweep actually pays (nothing is
// amortized across iterations). Compare with
// BenchmarkPairBoundsReference, the legacy per-pair pipeline on the
// same workload; BENCH_analysis.json records both.
func BenchmarkPairBounds(b *testing.B) {
	g, sink := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := disparity.Analyze(g)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := a.DisparityBound(sink, disparity.SDiff, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPairBoundsReference is the reference pipeline
// (enumerate, strip each pair's suffix, bound via PairDisparity) on the
// BenchmarkPairBounds workload — the fast path's speedup baseline.
func BenchmarkPairBoundsReference(b *testing.B) {
	g, sink := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := disparity.Analyze(g)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := a.DisparityReference(sink, disparity.SDiff, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChainIndex times building the shared prefix trie over 𝒫
// (chains.NewIndex); compare with BenchmarkEnumerateChains, which
// materializes every chain separately.
func BenchmarkChainIndex(b *testing.B) {
	g, sink := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if idx := chains.NewIndex(g, sink, 0); idx.NumChains() == 0 {
			b.Fatal("empty index")
		}
	}
}

// fleetBenchGraph builds the default ~2000-task fleet workload once
// per benchmark (schedulable by construction, so no retry loop skews
// the measurement) and returns it with its single sink.
func fleetBenchGraph(b *testing.B) (*disparity.Graph, disparity.TaskID) {
	b.Helper()
	g, _, err := disparity.GenerateFleet(disparity.FleetConfig{}, disparity.GenConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if g.NumTasks() < 2000 {
		b.Fatalf("fleet workload has %d tasks, want ≥ 2000", g.NumTasks())
	}
	return g, g.Sinks()[0]
}

// BenchmarkChainIndexFleet times the incremental trie build at fleet
// scale: ~2000 tasks with multi-word path masks.
func BenchmarkChainIndexFleet(b *testing.B) {
	g, sink := fleetBenchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := chains.NewIndex(g, sink, 0)
		if idx.NumChains() == 0 {
			b.Fatal("empty index")
		}
		if _, stride := idx.PathMasks(); stride < 2 {
			b.Fatalf("fleet masks stride = %d, want multi-word", stride)
		}
	}
}

// BenchmarkReadGraphFleet times loading the fleet workload from its
// WriteJSON bytes, serialized before the timer: decoding, building and
// validating ~2000 tasks. tools/bench_compare divides it by
// BenchmarkChainIndexFleet, the same graph's trie build.
func BenchmarkReadGraphFleet(b *testing.B) {
	g, _ := fleetBenchGraph(b)
	var doc bytes.Buffer
	if err := g.WriteJSON(&doc); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := disparity.ReadGraph(bytes.NewReader(doc.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWCRTFleet times the NP-FP response-time analysis alone on the
// fleet workload: the per-ECU priority index and the fixed points of all
// ~2000 tasks. tools/bench_compare divides it by BenchmarkChainIndexFleet,
// the same graph's trie build.
func BenchmarkWCRTFleet(b *testing.B) {
	g, _ := fleetBenchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := sched.Analyze(g, sched.NonPreemptiveFP); !res.Schedulable {
			b.Fatalf("fleet workload unschedulable: %v", res.Unschedulable)
		}
	}
}

// BenchmarkPairBoundsFleet times the full bound-only analysis on the
// fleet workload — fresh analysis, streaming index+bounds build, and
// the subtree descent over ~40k pairs with multi-word masks. Besides
// the wall-clock ratios in tools/bench_compare, it asserts the descent
// actually prunes: the pairs enumerated per iteration (evaluated +
// per-pair pruned) must be at most half the pair count.
func BenchmarkPairBoundsFleet(b *testing.B) {
	g, sink := fleetBenchGraph(b)
	bounded := metrics.C("core.pairs.bounded")
	pruned := metrics.C("core.pairs.pruned")
	b0, p0 := bounded.Load(), pruned.Load()
	var numPairs int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := disparity.Analyze(g)
		if err != nil {
			b.Fatal(err)
		}
		td, err := a.DisparityBound(sink, disparity.SDiff, 0)
		if err != nil {
			b.Fatal(err)
		}
		numPairs = td.NumPairs
	}
	b.StopTimer()
	if enumerated := (bounded.Load() - b0) + (pruned.Load() - p0); enumerated > int64(b.N)*int64(numPairs)/2 {
		b.Fatalf("subtree prune ineffective: %d pairs enumerated over %d iterations of %d pairs (want ≤ half)",
			enumerated, b.N, numPairs)
	}
}

// BenchmarkPairBoundsFleetReference is the reference pipeline on the
// BenchmarkPairBoundsFleet workload: every pair of the fleet graph
// enumerated, stripped and bounded one by one. It is the all-pairs
// denominator of the fleet descent's ratio in tools/bench_compare.
func BenchmarkPairBoundsFleetReference(b *testing.B) {
	g, sink := fleetBenchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := disparity.Analyze(g)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := a.DisparityReference(sink, disparity.SDiff, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// denseBenchGraph builds the fusion-dense shape of the repository
// benchmark — five WATERS layers of width 6, fanout 3, 4 ECUs, the
// single sink analyzed — from a fixed seed, redrawing until the graph
// is NP-FP schedulable: 516 chains and 132 870 pairs, 39% of them
// sharing a task below their join point (c ≥ 2).
func denseBenchGraph(b *testing.B) (*disparity.Graph, disparity.TaskID) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	for attempt := 0; attempt < 100; attempt++ {
		g, err := randgraph.Layered([]int{6, 6, 6, 6, 6}, 3, randgraph.Config{ECUs: 4, StimulusSources: true}, rng)
		if err != nil {
			b.Fatal(err)
		}
		waters.Populate(g, rng)
		if sched.Analyze(g, sched.NonPreemptiveFP).Schedulable {
			return g, g.Sinks()[0]
		}
	}
	b.Fatal("no schedulable dense benchmark graph found")
	return nil, 0
}

// BenchmarkPairBoundsDense times the S-diff descent where c ≥ 2 pairs
// dominate: a fresh analysis, then DisparityBound on the dense graph.
// It asserts that the closed-form bounds keep Theorem 2's recursion
// rare: the pairs evaluated in full stay at most 5% of the pair count,
// where running it on every c ≥ 2 pair would take 39%.
func BenchmarkPairBoundsDense(b *testing.B) {
	g, sink := denseBenchGraph(b)
	bounded := metrics.C("core.pairs.bounded")
	b0 := bounded.Load()
	var numPairs int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := disparity.Analyze(g)
		if err != nil {
			b.Fatal(err)
		}
		td, err := a.DisparityBound(sink, disparity.SDiff, 0)
		if err != nil {
			b.Fatal(err)
		}
		numPairs = td.NumPairs
	}
	b.StopTimer()
	if evaluated := bounded.Load() - b0; evaluated > int64(b.N)*int64(numPairs)/20 {
		b.Fatalf("S-diff prune ineffective: %d pairs evaluated over %d iterations of %d pairs (want ≤ 5%%)",
			evaluated, b.N, numPairs)
	}
}

// BenchmarkPairBoundsDenseReference is the reference pipeline on the
// BenchmarkPairBoundsDense graph, every pair enumerated, stripped and
// bounded: the denominator of the dense descent's ratio in
// tools/bench_compare.
func BenchmarkPairBoundsDenseReference(b *testing.B) {
	g, sink := denseBenchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := disparity.Analyze(g)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := a.DisparityReference(sink, disparity.SDiff, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateSecond times simulating one second of the 25-task
// workload (reported allocations dominate the merge of source stamps).
func BenchmarkSimulateSecond(b *testing.B) {
	g, _ := benchGraph(b)
	disparity.RandomOffsets(g, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := disparity.Simulate(g, disparity.SimConfig{
			Horizon: timeu.Second,
			Exec:    disparity.ExecExtremes,
			Seed:    int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimThroughput measures raw simulator throughput — simulated
// jobs per wall-clock second — on a fixed schedulable 25-task WATERS
// workload over a long horizon. It is the pure-engine counterpart of the
// Fig6* benchmarks: no graph generation, no analysis, just the
// discrete-event loop. Run with -benchmem; steady-state allocations per
// job should be ~0 (see internal/sim's alloc regression test).
func BenchmarkSimThroughput(b *testing.B) {
	g, _ := benchGraph(b)
	disparity.RandomOffsets(g, 1)
	var jobs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := disparity.Simulate(g, disparity.SimConfig{
			Horizon: 10 * timeu.Second,
			Exec:    disparity.ExecExtremes,
			Seed:    42,
		})
		if err != nil {
			b.Fatal(err)
		}
		jobs += res.Jobs
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(jobs)/secs, "jobs/s")
	}
}

// BenchmarkSimThroughputTraced is BenchmarkSimThroughput with a live
// Chrome span track attached to the engine. The delta against the
// untraced benchmark is the cost of *enabled* tracing (one countdown
// decrement per job plus one span per 65536-job chunk); the untraced
// benchmark itself guards the disabled path, which must stay within
// the tolerance recorded in BENCH_sim.json (see make verify-obs).
func BenchmarkSimThroughputTraced(b *testing.B) {
	g, _ := benchGraph(b)
	disparity.RandomOffsets(g, 1)
	tracer := span.New()
	var jobs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := disparity.Simulate(g, disparity.SimConfig{
			Horizon: 10 * timeu.Second,
			Exec:    disparity.ExecExtremes,
			Seed:    42,
			Trace:   tracer.Track("bench"),
		})
		if err != nil {
			b.Fatal(err)
		}
		jobs += res.Jobs
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(jobs)/secs, "jobs/s")
	}
	if tracer.SpanCount() == 0 {
		b.Fatal("traced run recorded no spans")
	}
}

// BenchmarkSimJumpAhead measures the steady-state jump-ahead fast path
// on a deterministic periodic workload: a 25-task WATERS graph with
// WCET execution over a 60-second horizon, of which everything past the
// transient prefix is one detected hyperperiod cycle replayed by the
// fast-forward. BenchmarkSimJumpAheadDisabled executes the same run in
// full; their ratio is the jump-ahead speedup recorded in
// BENCH_sim.json. The reported jobs/s counts simulated (including
// skipped) jobs.
func BenchmarkSimJumpAhead(b *testing.B) { benchJumpAhead(b, false, 0) }

// BenchmarkSimJumpAheadDisabled is the full-execution baseline of
// BenchmarkSimJumpAhead.
func BenchmarkSimJumpAheadDisabled(b *testing.B) { benchJumpAhead(b, true, 0) }

// BenchmarkSimJumpAheadWarm is BenchmarkSimJumpAhead with the 1 s
// measurement warm-up every frontend uses. The cycle closes before the
// warm-up, so the run jumps once at the same boundary and keeps one
// trailing cycle before the horizon: it costs one cycle of simulation
// more than the warm-up-free run.
func BenchmarkSimJumpAheadWarm(b *testing.B) { benchJumpAhead(b, false, timeu.Second) }

func benchJumpAhead(b *testing.B, disable bool, warmup timeu.Time) {
	g, _ := benchGraph(b)
	disparity.RandomOffsets(g, 1)
	var jobs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := disparity.Simulate(g, disparity.SimConfig{
			Horizon:          60 * timeu.Second,
			Warmup:           warmup,
			Exec:             disparity.ExecWCET,
			Seed:             42,
			DisableJumpAhead: disable,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !disable && !res.Jump.Engaged {
			b.Fatalf("jump-ahead did not engage: %+v", res.Jump)
		}
		jobs += res.Jobs
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(jobs)/secs, "jobs/s")
	}
}

// BenchmarkBatchSweep measures the inner loop of the experiment
// pipeline: a 20-run random-offset sweep through one shared engine
// (sim.Batch), WCET execution so jump-ahead engages per run. The
// per-run cost is what a thousand-variant sweep pays after the first
// run has warmed the pools.
func BenchmarkBatchSweep(b *testing.B) {
	g, _ := benchGraph(b)
	batch, err := sim.NewBatch(g, sim.Config{Horizon: 10 * timeu.Second, Exec: sim.WCETExec{}})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var offsets []timeu.Time
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for run := 0; run < 20; run++ {
			offsets = waters.DrawOffsets(g, rng, offsets[:0])
			if _, err := batch.Run(sim.BatchRun{
				Seed:      rng.Int63(),
				Offsets:   offsets,
				Observers: []sim.Observer{sim.NewDisparityObserver(timeu.Second)},
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEnumerateChains times path enumeration on the workload.
func BenchmarkEnumerateChains(b *testing.B) {
	g, sink := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := disparity.EnumerateChains(g, sink, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWCRT times the non-preemptive response-time analysis.
func BenchmarkWCRT(b *testing.B) {
	g, _ := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		disparity.WCRT(g)
	}
}

// BenchmarkOptimize times Algorithm 1 on a two-chain workload.
func BenchmarkOptimize(b *testing.B) {
	var (
		g      *disparity.Graph
		la, nu disparity.Chain
		a      *disparity.Analysis
	)
	for seed := int64(1); ; seed++ {
		var err error
		g, la, nu, err = disparity.GenerateTwoChains(10, disparity.GenConfig{Seed: seed})
		if err != nil {
			b.Fatal(err)
		}
		if a, err = disparity.Analyze(g); err == nil {
			break
		}
		if seed > 100 {
			b.Fatal("no schedulable two-chain workload")
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Optimize(la, nu); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBackward regenerates the Lemma-4/5 vs baseline
// ablation table.
func BenchmarkAblationBackward(b *testing.B) {
	cfg := benchCfg()
	cfg.Points = []int{10, 20}
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationBackward(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTail regenerates the shared-tail sweep.
func BenchmarkAblationTail(b *testing.B) {
	cfg := benchCfg()
	cfg.Points = []int{0, 3, 6}
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationTail(cfg, 15); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationExec regenerates the execution-model comparison.
func BenchmarkAblationExec(b *testing.B) {
	cfg := benchCfg()
	cfg.Points = []int{10}
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationExec(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSemantics regenerates the implicit-vs-LET comparison.
func BenchmarkAblationSemantics(b *testing.B) {
	cfg := benchCfg()
	cfg.Points = []int{10}
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationSemantics(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationUtilization regenerates the load sweep.
func BenchmarkAblationUtilization(b *testing.B) {
	cfg := benchCfg()
	cfg.Points = []int{10, 40}
	cfg.ECUs = 1
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationUtilization(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationGreedyBuffers regenerates the greedy-buffer table.
func BenchmarkAblationGreedyBuffers(b *testing.B) {
	cfg := benchCfg()
	cfg.Points = []int{10}
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationGreedyBuffers(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactLET times the closed-form LET disparity analysis.
func BenchmarkExactLET(b *testing.B) {
	g, fusion, err := disparity.GenerateAutomotive(disparity.AutomotiveConfig{}, disparity.GenConfig{Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < g.NumTasks(); i++ {
		g.Task(disparity.TaskID(i)).Sem = disparity.LET
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := disparity.ExactLETDisparity(g, fusion); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTokenMerge times the simulator's stamp merging in isolation.
func BenchmarkTokenMerge(b *testing.B) {
	mk := func(tasks ...int) *sim.Token {
		t := &sim.Token{}
		for _, id := range tasks {
			t.Stamps = append(t.Stamps, sim.Stamp{Task: disparity.TaskID(id), Min: 1, Max: 2})
		}
		return t
	}
	tokens := []*sim.Token{mk(0, 2, 4, 6), mk(1, 2, 3, 8), mk(0, 5, 9)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := sim.Job{Out: tokens[i%3]}
		_ = j.Out.Span()
	}
}
