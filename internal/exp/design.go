package exp

import (
	"context"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/trace/span"
)

// The experiments in this file explore the design space around the
// paper's optimization: how priority assignment and multi-pair (greedy)
// buffer insertion move the S-diff bound on general fusion graphs, where
// the paper's evaluation only treats two-chain topologies.

// AblationPriority compares rate-monotonic against topological (flow-
// ordered) priority assignment on utilization-scaled workloads, per
// utilization percent. Producers-above-consumers turns every same-ECU
// hop into Lemma 4's θ = T case, so the topological column should win as
// load grows. Unschedulable assignments are regenerated; the column
// reflects schedulable systems only. Columns (ms): S-diff(RM),
// S-diff(topo).
func AblationPriority(cfg Config) (*Table, error) {
	tbl := &Table{
		Title:   "Ablation: rate-monotonic vs topological priorities (ms)",
		XLabel:  "util%",
		Columns: []string{colSDiff + "(RM)", colSDiff + "(topo)"},
	}
	err := runSweep(cfg, sweepSpec{
		prefix:     "util=",
		checkPoint: checkUtilization,
		eval: func(ctx context.Context, cfg Config, tk *span.Track, upct, pi, gi int) ([]float64, error) {
			g := genUtilization(cfg, 16, float64(upct)/100, pi, gi)
			if g == nil {
				return nil, nil
			}
			sink := g.Sinks()[0]
			// RM is how genUtilization's populator left the graph.
			rmA, err := core.New(g)
			if err != nil {
				return nil, nil
			}
			rmTd, ok := sdiffBound(cfg, rmA, sink)
			if !ok || rmTd.NumPairs == 0 {
				return nil, nil
			}
			topo := g.Clone()
			if err := sched.AssignTopological(topo); err != nil {
				return nil, nil
			}
			topoA, err := core.New(topo)
			if err != nil {
				return nil, nil // topological order unschedulable here
			}
			topoTd, ok := sdiffBound(cfg, topoA, sink)
			if !ok {
				return nil, nil
			}
			return []float64{rmTd.Bound.Milliseconds(), topoTd.Bound.Milliseconds()}, nil
		},
		tables: []*Table{tbl},
	})
	if err != nil {
		return nil, err
	}
	return tbl, nil
}

// AblationGreedyBuffers extends the paper's Fig. 6(c) beyond two chains:
// on general fusion graphs it reports the S-diff bound, the bound after
// one application of Algorithm 1 to the worst pair, and after the greedy
// multi-pair loop, plus the observed disparities without and with the
// greedy buffers. Columns (ms): S-diff, S-diff-B1, S-diff-Bg, Sim,
// Sim-Bg.
func AblationGreedyBuffers(cfg Config) (*Table, error) {
	tbl := &Table{
		Title:   "Ablation: single vs greedy Algorithm 1 on fusion graphs (ms)",
		XLabel:  "tasks",
		Columns: []string{colSDiff, colSDiff + "-B1", colSDiff + "-Bg", colSim, colSim + "-Bg"},
	}
	err := runSweep(cfg, sweepSpec{
		prefix: "n=",
		eval: func(ctx context.Context, cfg Config, tk *span.Track, n, pi, gi int) ([]float64, error) {
			g := genForPoint(cfg, n, pi, gi)
			if g == nil {
				return nil, nil
			}
			a, err := core.New(g)
			if err != nil {
				return nil, nil
			}
			sink := g.Sinks()[0]
			td, ok := sdiffBound(cfg, a, sink)
			if !ok || td.NumPairs == 0 {
				return nil, nil
			}
			plan, _, err := a.OptimizeTask(sink, cfg.MaxChains)
			if err != nil {
				return nil, nil
			}
			greedy, err := a.OptimizeTaskGreedy(sink, cfg.MaxChains, greedyRounds)
			if err != nil {
				return nil, nil
			}
			rng := rand.New(rand.NewSource(cfg.Seed + int64(pi*41+gi)))
			simPlain, err := simulateMaxDisparity(ctx, cfg, tk, g, sink, rng)
			if err != nil {
				return nil, err
			}
			simGreedy, err := simulateMaxDisparity(ctx, cfg, tk, greedy.Graph, sink, rng)
			if err != nil {
				return nil, err
			}

			// A graph whose single application fails still counts in the
			// S-diff column; its other four cells stay out of their means.
			nan := math.NaN()
			row := []float64{td.Bound.Milliseconds(), nan, nan, nan, nan}
			// A single application's After bounds only the optimized pair;
			// the task-level bound is the max over pairs of the re-analyzed
			// buffered graph. Recompute for honesty.
			single := g.Clone()
			if err := plan.Apply(single); err != nil {
				return row, nil
			}
			singleA, err := core.New(single)
			if err != nil {
				return row, nil
			}
			singleTd, err := singleA.DisparityBound(sink, core.SDiff, cfg.MaxChains)
			if err != nil {
				return row, nil
			}
			row[1] = singleTd.Bound.Milliseconds()
			row[2] = greedy.After.Milliseconds()
			row[3] = simPlain.Milliseconds()
			row[4] = simGreedy.Milliseconds()
			return row, nil
		},
		tables: []*Table{tbl},
	})
	if err != nil {
		return nil, err
	}
	return tbl, nil
}
