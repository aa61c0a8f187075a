package exp

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/trace/span"
)

// The experiments in this file explore the design space around the
// paper's optimization: how priority assignment and multi-pair (greedy)
// buffer insertion move the S-diff bound on general fusion graphs, where
// the paper's evaluation only treats two-chain topologies.

type priorityResult struct {
	rm, topo float64
}

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
	err := runSweep(cfg, sweepSpec[priorityResult]{
		prefix: "util=",
		checkPoint: func(upct int) error {
			if upct <= 0 || upct >= 100 {
				return fmt.Errorf("exp: utilization %d%% out of (0, 100)", upct)
			}
			return nil
		},
		eval: func(ctx context.Context, tk *span.Track, upct, pi, gi int) (priorityResult, bool, error) {
			g := genUtilization(cfg, 16, float64(upct)/100, pi, gi)
			if g == nil {
				return priorityResult{}, false, nil
			}
			sink := g.Sinks()[0]
			// RM is how genUtilization's populator left the graph.
			rmA, err := core.New(g)
			if err != nil {
				return priorityResult{}, false, nil
			}
			rmTd, ok := sdiffBound(cfg, rmA, sink)
			if !ok || rmTd.NumPairs == 0 {
				return priorityResult{}, false, nil
			}
			topo := g.Clone()
			if err := sched.AssignTopological(topo); err != nil {
				return priorityResult{}, false, nil
			}
			topoA, err := core.New(topo)
			if err != nil {
				return priorityResult{}, false, nil // topological order unschedulable here
			}
			topoTd, ok := sdiffBound(cfg, topoA, sink)
			if !ok {
				return priorityResult{}, false, nil
			}
			return priorityResult{
				rm:   rmTd.Bound.Milliseconds(),
				topo: topoTd.Bound.Milliseconds(),
			}, true, nil
		},
		point: func(upct int, results []priorityResult) error {
			var rms, topos []float64
			for _, r := range results {
				rms = append(rms, r.rm)
				topos = append(topos, r.topo)
			}
			tbl.AddRow(upct, mean(rms), mean(topos))
			return nil
		},
		emptyErr: func(upct int) error { return fmt.Errorf("exp: no usable graphs at %d%% utilization", upct) },
	})
	if err != nil {
		return nil, err
	}
	return tbl, nil
}

// greedyResult mirrors the original loop's asymmetric aggregation: a
// graph whose single-application path fails after the greedy path
// succeeded still contributes its S-diff value (full=false), so the
// S-diff column can average more graphs than the others.
type greedyResult struct {
	sd                 float64
	b1, bg, sim, simBg float64
	full               bool
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
	err := runSweep(cfg, sweepSpec[greedyResult]{
		prefix: "n=",
		eval: func(ctx context.Context, tk *span.Track, n, pi, gi int) (greedyResult, bool, error) {
			g := genForPoint(cfg, n, pi, gi)
			if g == nil {
				return greedyResult{}, false, nil
			}
			a, err := core.New(g)
			if err != nil {
				return greedyResult{}, false, nil
			}
			sink := g.Sinks()[0]
			td, ok := sdiffBound(cfg, a, sink)
			if !ok || td.NumPairs == 0 {
				return greedyResult{}, false, nil
			}
			plan, _, err := a.OptimizeTask(sink, cfg.MaxChains)
			if err != nil {
				return greedyResult{}, false, nil
			}
			greedy, err := a.OptimizeTaskGreedy(sink, cfg.MaxChains, greedyRounds)
			if err != nil {
				return greedyResult{}, false, nil
			}
			rng := rand.New(rand.NewSource(cfg.Seed + int64(pi*41+gi)))
			simPlain, err := simulateMaxDisparity(ctx, cfg, tk, g, sink, rng)
			if err != nil {
				return greedyResult{}, false, err
			}
			simGreedy, err := simulateMaxDisparity(ctx, cfg, tk, greedy.Graph, sink, rng)
			if err != nil {
				return greedyResult{}, false, err
			}

			r := greedyResult{sd: td.Bound.Milliseconds()}
			// A single application's After bounds only the optimized pair;
			// the task-level bound is the max over pairs of the re-analyzed
			// buffered graph. Recompute for honesty.
			single := g.Clone()
			if err := plan.Apply(single); err != nil {
				return r, true, nil
			}
			singleA, err := core.New(single)
			if err != nil {
				return r, true, nil
			}
			singleTd, err := singleA.DisparityBound(sink, core.SDiff, cfg.MaxChains)
			if err != nil {
				return r, true, nil
			}
			r.b1 = singleTd.Bound.Milliseconds()
			r.bg = greedy.After.Milliseconds()
			r.sim = simPlain.Milliseconds()
			r.simBg = simGreedy.Milliseconds()
			r.full = true
			return r, true, nil
		},
		point: func(n int, results []greedyResult) error {
			var sds, b1s, bgs, sims, simBgs []float64
			for _, r := range results {
				sds = append(sds, r.sd)
				if !r.full {
					continue
				}
				b1s = append(b1s, r.b1)
				bgs = append(bgs, r.bg)
				sims = append(sims, r.sim)
				simBgs = append(simBgs, r.simBg)
			}
			tbl.AddRow(n, mean(sds), mean(b1s), mean(bgs), mean(sims), mean(simBgs))
			if cfg.Log != nil {
				fmt.Fprintf(cfg.Log, "greedy n=%d: S=%.3f B1=%.3f Bg=%.3f Sim=%.3f SimBg=%.3f\n",
					n, mean(sds), mean(b1s), mean(bgs), mean(sims), mean(simBgs))
			}
			return nil
		},
		emptyErr: func(n int) error { return fmt.Errorf("exp: no usable graphs at n=%d", n) },
	})
	if err != nil {
		return nil, err
	}
	return tbl, nil
}
