package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/backward"
	"repro/internal/chains"
	"repro/internal/core"
	imetrics "repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace/span"
)

// agg says how a per-layer metric folds its per-op values.
type agg int

const (
	aggMedian agg = iota
	aggMean
	aggSum
	// aggRun marks a value measured once over the whole traced run.
	aggRun
)

// layerMetric is one per-layer metric: its BENCHMARK.json entry plus the
// end-to-end metric and workload it should move ("metric@workload").
type layerMetric struct {
	name, unit, better string
	moves              []string
	agg                agg
}

// layerMetrics lists the per-layer metrics in BENCHMARK.json order.
var layerMetrics = []layerMetric{
	{"model.read_ms", "ms", "lower", []string{"op_ms_p50@fleet-verify"}, aggMedian},
	{"model.read_alloc_kb", "KB", "lower", []string{"alloc_mb_per_op@fleet-verify"}, aggMedian},
	{"model.validate_ms", "ms", "lower", []string{"op_ms_p50@fleet-verify"}, aggMedian},
	{"sched.wcrt_ms", "ms", "lower", []string{"op_ms_p50@fleet-verify", "op_ms_p50@fusion-dense"}, aggMedian},
	{"sched.wcrt_alloc_kb", "KB", "lower", []string{"alloc_mb_per_op@fleet-verify"}, aggMedian},
	{"sched.fixedpoint_iters", "count", "lower", []string{"op_ms_p50@fleet-verify"}, aggMedian},
	{"chains.index_ms", "ms", "lower", []string{"op_ms_p50@fusion-dense"}, aggMedian},
	{"chains.trie_nodes", "count", "lower", []string{"alloc_mb_per_op@fusion-dense"}, aggMedian},
	{"chains.truncated", "count", "lower", []string{"op_ms_p50@fig6-sweep"}, aggSum},
	{"backward.index_bounds_ms", "ms", "lower", []string{"op_ms_p50@fusion-dense"}, aggMedian},
	{"backward.subtree_aggs_ms", "ms", "lower", []string{"op_ms_p50@fusion-dense"}, aggMedian},
	{"core.new_ms", "ms", "lower", []string{"op_ms_p50@fleet-verify"}, aggMedian},
	{"core.bound_cold_ms", "ms", "lower", []string{"op_ms_p50@fusion-dense", "op_ms_p50@fleet-verify"}, aggMedian},
	{"core.descent_sdiff_ms", "ms", "lower", []string{"op_ms_p50@fusion-dense"}, aggMedian},
	{"core.descent_pdiff_ms", "ms", "lower", []string{"op_ms_p50@fusion-dense"}, aggMedian},
	{"core.pairs_evaluated_ratio", "ratio", "lower", []string{"op_ms_p50@fusion-dense"}, aggMedian},
	{"core.subtree_pruned_ratio", "ratio", "higher", []string{"op_ms_p50@fusion-dense"}, aggMedian},
	{"core.optimize_rounds", "count", "lower", []string{"op_ms_p50@fusion-dense"}, aggMedian},
	{"core.optimize_ms_per_round", "ms", "lower", []string{"op_ms_p50@fusion-dense"}, aggMedian},
	{"core.optimize_alloc_kb", "KB", "lower", []string{"alloc_mb_per_op@fusion-dense"}, aggMedian},
	{"core.cache_hit_ratio.sched", "ratio", "higher", []string{"op_ms_p50@fig6-sweep"}, aggMedian},
	{"core.cache_hit_ratio.backward", "ratio", "higher", []string{"op_ms_p50@fig6-sweep"}, aggMedian},
	{"core.cache_hit_ratio.enum", "ratio", "higher", []string{"op_ms_p50@fig6-sweep"}, aggMedian},
	{"core.cache_hit_ratio.pair", "ratio", "higher", []string{"op_ms_p50@fig6-sweep"}, aggMedian},
	{"core.cache_hit_ratio.task", "ratio", "higher", []string{"op_ms_p50@fig6-sweep"}, aggMedian},
	{"sim.batch_new_ms", "ms", "lower", []string{"op_ms_p50@fig6-sweep"}, aggMedian},
	{"sim.run_ms", "ms", "lower", []string{"op_ms_p50@fig6-sweep", "op_ms_p50@sim-periodic"}, aggMedian},
	{"sim.ns_per_job", "ns", "lower", []string{"ops_per_s@fig6-sweep"}, aggMedian},
	{"sim.run_alloc_kb", "KB", "lower", []string{"alloc_mb_per_op@sim-periodic"}, aggMedian},
	{"sim.observer_frac", "ratio", "lower", []string{"op_ms_p50@fig6-sweep"}, aggMedian},
	{"sim.jump_engaged_ratio", "ratio", "higher", []string{"op_ms_p50@sim-periodic"}, aggMean},
	{"sim.jump_skipped_frac", "ratio", "higher", []string{"op_ms_p50@sim-periodic"}, aggMedian},
	{"sim.jump_speedup", "ratio", "higher", []string{"op_ms_p50@sim-periodic"}, aggMedian},
	{"sim.overruns", "count", "lower", []string{"op_ms_p50@sim-periodic"}, aggSum},
	{"runtime.gc_cpu_frac", "ratio", "lower", []string{"ops_per_s@fusion-dense", "ops_per_s@fleet-verify"}, aggRun},
	{"trace.overhead_frac", "ratio", "lower", []string{"op_ms_p50@fleet-verify"}, aggMedian},
}

// normalizeLayers scales each op's time-valued metrics to reference
// speed (see reference.go); counts, ratios and sizes stay as measured.
func normalizeLayers(ops []*opTrace, speed []float64) {
	for i, ot := range ops {
		for _, m := range layerMetrics {
			if m.unit == "ms" || m.unit == "ns" {
				ot.vals[m.name] *= speed[i]
			}
		}
		ot.vals["verdict_ms"] *= speed[i]
		ot.vals["speed"] = speed[i]
	}
}

// verdictSpans are the layer calls that together redo the facade
// verdict; their sum is compared against the untraced "verdict" probe.
var verdictSpans = []string{
	"model.read", "model.validate", "sched.wcrt", "core.new", "core.bound_cold", "core.descent_pdiff",
}

// callRec is one timed layer call of a traced op.
type callRec struct {
	name  string
	probe bool
	dur   time.Duration
	alloc uint64
}

// opTrace is one traced op: an "op" span on the track with one child
// span per layer call, and the per-layer values derived from them.
type opTrace struct {
	tk    *span.Track
	dur   time.Duration
	calls []callRec
	vals  map[string]float64
	// absent collects the counters the registry did not have.
	absent map[string]bool
}

type call struct {
	ot *opTrace
	sp span.Span
	t0 time.Time
	a0 uint64
	callRec
}

// start opens a layer call. Probes are calls outside the verdict
// decomposition; their spans carry probe=1.
func (ot *opTrace) start(name string, probe bool) *call {
	c := &call{ot: ot, a0: heapAllocs(), callRec: callRec{name: name, probe: probe}}
	c.sp = ot.tk.Start(name)
	c.t0 = time.Now()
	return c
}

func (c *call) end(args ...span.Arg) callRec {
	c.dur = time.Since(c.t0)
	if c.probe {
		args = append(args, span.Int("probe", 1))
	}
	c.sp.End(args...)
	c.alloc = heapAllocs() - c.a0
	c.ot.calls = append(c.ot.calls, c.callRec)
	return c.callRec
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func kb(b uint64) float64        { return float64(b) / 1e3 }

// ratio is a / b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func count(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// counters snapshots the metrics registry's instruments by name.
func counters() map[string]int64 {
	m := make(map[string]int64)
	for _, e := range imetrics.Default.Snapshot() {
		m[e.Name] = e.Value
	}
	return m
}

// delta reads a counter's change between two snapshots; a counter
// missing from the registry reads as 0 and is reported as absent.
func (ot *opTrace) delta(before, after map[string]int64, name string) float64 {
	a, ok := after[name]
	if !ok {
		ot.absent[name] = true
		return 0
	}
	return float64(a - before[name])
}

// walk runs one input through every layer of the pipeline, each call
// timed and spanned from here: the workload's own op, the verdict
// decomposition read → validate → wcrt → analysis → S-diff → P-diff,
// and probes of the chain index, backward bounds, warm descent, greedy
// optimizer and simulator.
func walk(w *workload, in *input, tk *span.Track) (*opTrace, *result, error) {
	ot := &opTrace{tk: tk, vals: make(map[string]float64), absent: make(map[string]bool)}
	root := tk.Start("op")
	t0 := time.Now()
	r, err := walkLayers(w, in, ot)
	ot.dur = time.Since(t0)
	root.End(span.Int("input", int64(in.index)))
	return ot, r, err
}

func walkLayers(w *workload, in *input, ot *opTrace) (*result, error) {
	v := ot.vals
	task, maxChains := in.task, w.maxChains

	k0 := counters()
	c := ot.start("workload.op", true)
	r, err := w.op(in)
	c.end()
	if err != nil {
		return nil, err
	}
	k1 := counters()
	for _, layer := range []string{"sched", "backward", "enum", "pair", "task"} {
		hits := ot.delta(k0, k1, "cache."+layer+".hits")
		misses := ot.delta(k0, k1, "cache."+layer+".misses")
		v["core.cache_hit_ratio."+layer] = ratio(hits, hits+misses)
	}

	c = ot.start("model.read", false)
	g, err := model.ReadJSON(bytes.NewReader(in.data))
	if err != nil {
		c.end()
		return nil, err
	}
	rec := c.end(span.Int("tasks", int64(g.NumTasks())))
	v["model.read_ms"], v["model.read_alloc_kb"] = ms(rec.dur), kb(rec.alloc)

	c = ot.start("model.validate", false)
	err = g.Validate()
	v["model.validate_ms"] = ms(c.end().dur)
	if err != nil {
		return nil, err
	}

	k2 := counters()
	c = ot.start("sched.wcrt", false)
	res := sched.Analyze(g, sched.NonPreemptiveFP)
	rec = c.end()
	v["sched.wcrt_ms"], v["sched.wcrt_alloc_kb"] = ms(rec.dur), kb(rec.alloc)
	v["sched.fixedpoint_iters"] = ot.delta(k2, counters(), "sched.fixedpoint.iterations")
	v["sched.max_tasks_per_ecu"] = float64(maxTasksPerECU(g))
	if !res.Schedulable {
		return nil, fmt.Errorf("input %d: not schedulable", in.index)
	}

	c = ot.start("core.new", false)
	bw := backward.NewAnalyzer(g, res, backward.NonPreemptive)
	a := core.NewWithBackward(g, bw)
	v["core.new_ms"] = ms(c.end().dur)

	k3 := counters()
	c = ot.start("core.bound_cold", false)
	sd, err := a.DisparityBound(task, core.SDiff, maxChains)
	if err != nil {
		c.end()
		return nil, err
	}
	v["core.bound_cold_ms"] = ms(c.end(span.Int("pairs", int64(sd.NumPairs))).dur)
	k4 := counters()
	pairs := float64(sd.NumPairs)
	evaluated := ot.delta(k3, k4, "core.pairs.bounded") + ot.delta(k3, k4, "core.pairs.pruned")
	v["core.pairs_evaluated_ratio"] = ratio(evaluated, pairs)
	v["core.subtree_pruned_ratio"] = ratio(ot.delta(k3, k4, "core.pairs.subtree_pruned"), pairs)
	v["core.pairs"] = pairs

	c = ot.start("core.descent_pdiff", false)
	_, err = a.DisparityBound(task, core.PDiff, maxChains)
	v["core.descent_pdiff_ms"] = ms(c.end().dur)
	if err != nil {
		return nil, err
	}

	c = ot.start("verdict", true)
	_, _, _, err = verdict(bytes.NewReader(in.data), task, false, maxChains)
	untraced := c.end().dur
	if err != nil {
		return nil, err
	}
	var sum time.Duration
	for _, rec := range ot.calls {
		for _, name := range verdictSpans {
			if rec.name == name {
				sum += rec.dur
			}
		}
	}
	v["verdict_ms"] = ms(untraced)
	v["trace.overhead_frac"] = ratio(float64(sum-untraced), float64(untraced))

	c = ot.start("chains.index", true)
	idx := chains.NewIndex(g, task, maxChains)
	v["chains.index_ms"] = ms(c.end(span.Int("chains", int64(idx.NumChains())), span.Int("nodes", int64(idx.NumNodes()))).dur)
	v["chains.chains"], v["chains.trie_nodes"] = float64(idx.NumChains()), float64(idx.NumNodes())
	v["chains.truncated"] = count(idx.Truncated())

	c = ot.start("backward.index_bounds", true)
	_, tb := bw.IndexBounds(g, task, maxChains)
	v["backward.index_bounds_ms"] = ms(c.end().dur)
	c = ot.start("backward.subtree_aggs", true)
	tb.SubtreeAggs()
	v["backward.subtree_aggs_ms"] = ms(c.end().dur)

	c = ot.start("core.descent_sdiff", true)
	_, err = a.DisparityBound(task, core.SDiff, maxChains)
	v["core.descent_sdiff_ms"] = ms(c.end().dur)
	if err != nil {
		return nil, err
	}

	c = ot.start("core.optimize", true)
	gr, err := a.OptimizeTaskGreedy(task, maxChains, w.greedyRounds)
	if err != nil {
		c.end()
		return nil, err
	}
	rounds := len(gr.Plans) + 1
	if limit := greedyLimit(w.greedyRounds); rounds > limit {
		rounds = limit
	}
	rec = c.end(span.Int("rounds", int64(rounds)))
	v["core.optimize_rounds"] = float64(rounds)
	v["core.optimize_ms_per_round"] = ms(rec.dur) / float64(rounds)
	v["core.optimize_alloc_kb"] = kb(rec.alloc)

	return r, simProbes(w, in, g, ot)
}

// maxTasksPerECU is an input property reported next to the WCRT layer,
// whose fixed point scans each task's ECU.
func maxTasksPerECU(g *model.Graph) int {
	most := 0
	for _, e := range g.ECUs() {
		most = max(most, len(g.TasksOnECU(e.ID)))
	}
	return most
}

// greedyLimit is OptimizeTaskGreedy's effective round cap.
func greedyLimit(rounds int) int {
	if rounds <= 0 {
		return 16
	}
	return rounds
}

// simProbes times the workload's simulation on the input's first drawn
// run: engine construction, the run with observers, the same run
// without observers, and without jump-ahead.
func simProbes(w *workload, in *input, g *model.Graph, ot *opTrace) error {
	v := ot.vals
	spec, run := w.probe, in.runs[0]
	c := ot.start("sim.batch_new", true)
	b, err := sim.NewBatch(g, sim.Config{Horizon: spec.horizon, Exec: spec.exec})
	v["sim.batch_new_ms"] = ms(c.end().dur)
	if err != nil {
		return err
	}

	var with simOutcome
	c = ot.start("sim.run", true)
	err = runOne(b, in, run, spec, &with)
	rec := c.end(span.Int("jobs", with.jobs), span.Str("jump", with.jump.Code()))
	if err != nil {
		return err
	}
	v["sim.run_ms"], v["sim.run_alloc_kb"] = ms(rec.dur), kb(rec.alloc)
	v["sim.ns_per_job"] = ratio(float64(rec.dur), float64(with.jobs))
	v["sim.jump_engaged_ratio"] = count(with.jump.Engaged)
	v["sim.jump_skipped_frac"] = ratio(float64(with.jump.SkippedTime), float64(spec.horizon))
	v["sim.overruns"] = float64(with.overruns)

	c = ot.start("sim.run_noobs", true)
	_, err = b.Run(sim.BatchRun{Seed: run.seed, Offsets: run.offsets})
	bare := c.end().dur
	if err != nil {
		return err
	}
	v["sim.observer_frac"] = ratio(float64(rec.dur-bare), float64(rec.dur))

	full, err := sim.NewBatch(g, sim.Config{Horizon: spec.horizon, Exec: spec.exec, DisableJumpAhead: true})
	if err != nil {
		return err
	}
	var slow simOutcome
	c = ot.start("sim.run_nojump", true)
	err = runOne(full, in, run, spec, &slow)
	v["sim.jump_speedup"] = ratio(float64(c.end().dur), float64(rec.dur))
	return err
}
