package exp

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/randgraph"
	"repro/internal/trace/span"
	"repro/internal/waters"
)

// graphResult carries the per-graph metrics of Fig. 6(a)/(b).
type graphResult struct {
	sim, pdiff, sdiff float64 // milliseconds
	ok                bool
}

// Fig6a runs the Fig. 6(a) experiment and returns the absolute series
// (milliseconds): Sim, P-diff, S-diff versus task count.
func Fig6a(cfg Config) (*Table, error) {
	tbl := &Table{
		Title:   "Fig 6(a): worst-case time disparity vs number of tasks (ms)",
		XLabel:  "tasks",
		Columns: []string{colSim, colPDiff, colSDiff},
	}
	ratios := &Table{}
	if err := runFig6ab(cfg, tbl, ratios); err != nil {
		return nil, err
	}
	return tbl, nil
}

// Fig6b runs the same experiment as Fig6a but returns the incremental
// ratios (bound − Sim)/Sim of P-diff and S-diff.
func Fig6b(cfg Config) (*Table, error) {
	abs := &Table{}
	tbl := &Table{
		Title:   "Fig 6(b): incremental ratio vs number of tasks",
		XLabel:  "tasks",
		Columns: []string{colPDiff, colSDiff},
	}
	if err := runFig6ab(cfg, abs, tbl); err != nil {
		return nil, err
	}
	return tbl, nil
}

// Fig6ab runs the shared experiment once and returns both views,
// avoiding double work when a caller wants the full panel.
func Fig6ab(cfg Config) (abs, ratio *Table, err error) {
	abs = &Table{
		Title:   "Fig 6(a): worst-case time disparity vs number of tasks (ms)",
		XLabel:  "tasks",
		Columns: []string{colSim, colPDiff, colSDiff},
	}
	ratio = &Table{
		Title:   "Fig 6(b): incremental ratio vs number of tasks",
		XLabel:  "tasks",
		Columns: []string{colPDiff, colSDiff},
	}
	if err := runFig6ab(cfg, abs, ratio); err != nil {
		return nil, nil, err
	}
	return abs, ratio, nil
}

func runFig6ab(cfg Config, abs, ratio *Table) error {
	if len(abs.Columns) == 0 {
		abs.Columns = []string{colSim, colPDiff, colSDiff}
		abs.XLabel = "tasks"
	}
	if len(ratio.Columns) == 0 {
		ratio.Columns = []string{colPDiff, colSDiff}
		ratio.XLabel = "tasks"
	}
	return runSweep(cfg, sweepSpec[graphResult]{
		prefix: "n=",
		eval: func(ctx context.Context, tk *span.Track, n, pi, gi int) (graphResult, bool, error) {
			r, err := evalGNMGraph(ctx, cfg, tk, n, pi, gi)
			return r, r.ok, err
		},
		point: func(n int, results []graphResult) error {
			var sims, pds, sds, prs, srs []float64
			for _, r := range results {
				sims = append(sims, r.sim)
				pds = append(pds, r.pdiff)
				sds = append(sds, r.sdiff)
				if r.sim > 0 {
					prs = append(prs, (r.pdiff-r.sim)/r.sim)
					srs = append(srs, (r.sdiff-r.sim)/r.sim)
				}
			}
			abs.AddRow(n, mean(sims), mean(pds), mean(sds))
			ratio.AddRow(n, mean(prs), mean(srs))
			if cfg.Log != nil {
				fmt.Fprintf(cfg.Log, "n=%d: Sim=%.3fms P-diff=%.3fms S-diff=%.3fms (%d graphs)\n",
					n, mean(sims), mean(pds), mean(sds), len(sims))
			}
			return nil
		},
		emptyErr: func(n int) error { return fmt.Errorf("exp: no usable graphs at point n=%d", n) },
	})
}

// newGraphRNG seeds the per-graph stream shared by the Fig. 6(a)/(b)
// sweep and BoundsSweep — both must draw identical graphs.
func newGraphRNG(seed int64, pi, gi int) *rand.Rand {
	return rand.New(rand.NewSource(seed + int64(pi)*1_000_003 + int64(gi)*7_919))
}

// generateGNM draws the next candidate graph from the per-graph rng
// stream. A nil graph means the draw failed and should be retried.
func generateGNM(cfg Config, tk *span.Track, n int, rng *rand.Rand) *model.Graph {
	defer stage(genHist, tk, "generate")()
	tail := cfg.TailLen
	if n-tail < 5 {
		tail = n - 5
	}
	if tail < 0 {
		tail = 0
	}
	gcfg := randgraph.Config{ECUs: cfg.ECUs, StimulusSources: true, TailLen: tail}
	randPart := n - tail // total tasks = n as plotted
	g, err := randgraph.GNM(randPart, int(cfg.EdgeFactor*float64(randPart)), gcfg, rng)
	if err != nil {
		return nil
	}
	waters.Populate(g, rng)
	graphsGenerated.Inc()
	return g
}

// evalGNMGraph generates the gi-th graph for point n and evaluates it:
// analysis bounds at the sink plus the max simulated disparity over the
// offset runs. ok=false marks graphs abandoned after repeated retries
// (unschedulable or degenerate draws); a non-nil error is a genuine
// failure that aborts the sweep.
func evalGNMGraph(ctx context.Context, cfg Config, tk *span.Track, n, pi, gi int) (graphResult, error) {
	if failGraphHook != nil {
		if err := failGraphHook(pi, gi); err != nil {
			return graphResult{}, err
		}
	}
	ws := tk.Start("workload")
	defer ws.End(span.Int("n", int64(n)), span.Int("graph", int64(gi)))
	rng := newGraphRNG(cfg.Seed, pi, gi)
	for attempt := 0; attempt < 60; attempt++ {
		if err := ctx.Err(); err != nil {
			return graphResult{}, err
		}
		g := generateGNM(cfg, tk, n, rng)
		if g == nil {
			continue
		}
		stop := stage(analysisHist, tk, "analysis")
		a, ok := cfg.newAnalysis(g, tk)
		if !ok {
			stop()
			continue
		}
		sink := g.Sinks()[0]
		pd, err := a.DisparityBound(sink, core.PDiff, cfg.MaxChains)
		if err != nil {
			stop()
			continue
		}
		sd, err := a.DisparityBound(sink, core.SDiff, cfg.MaxChains)
		stop()
		if err != nil {
			continue
		}
		if pd.Truncated || sd.Truncated {
			// Exponential-path outlier: the bound covers only part of 𝒫.
			cfg.noteTruncation(fmt.Sprintf("n=%d graph %d", n, gi))
			continue
		}
		if pd.NumPairs == 0 {
			continue // single-source graph: disparity is trivially 0
		}
		simMax, err := simulateMaxDisparity(ctx, cfg, tk, g, sink, rng)
		if err != nil {
			return graphResult{}, err
		}
		graphsUsed.Inc()
		return graphResult{
			sim:   simMax.Milliseconds(),
			pdiff: pd.Bound.Milliseconds(),
			sdiff: sd.Bound.Milliseconds(),
			ok:    true,
		}, nil
	}
	return graphResult{}, nil
}

// Fig6c runs the Fig. 6(c) experiment: two independent chains merged at a
// sink, with and without Algorithm 1's buffers. Columns (ms): Sim,
// S-diff, Sim-B, S-diff-B versus per-chain task count.
func Fig6c(cfg Config) (*Table, error) {
	abs, _, err := fig6cd(cfg)
	return abs, err
}

// Fig6d returns the incremental-ratio view of Fig6c: (S-diff − Sim)/Sim
// and (S-diff-B − Sim-B)/Sim-B.
func Fig6d(cfg Config) (*Table, error) {
	_, ratio, err := fig6cd(cfg)
	return ratio, err
}

// Fig6cd runs the Fig. 6(c)/(d) experiment once and returns both views.
func Fig6cd(cfg Config) (abs, ratio *Table, err error) {
	return fig6cd(cfg)
}

type twoChainResult struct {
	sim, sdiff, simB, sdiffB float64
	ok                       bool
}

func fig6cd(cfg Config) (*Table, *Table, error) {
	abs := &Table{
		Title:   "Fig 6(c): two-chain disparity with buffer optimization (ms)",
		XLabel:  "chainlen",
		Columns: []string{colSim, colSDiff, colSim + "-B", colSDiffB},
	}
	ratio := &Table{
		Title:   "Fig 6(d): incremental ratio with buffer optimization",
		XLabel:  "chainlen",
		Columns: []string{colSDiff, colSDiffB},
	}
	err := runSweep(cfg, sweepSpec[twoChainResult]{
		prefix: "len=",
		eval: func(ctx context.Context, tk *span.Track, n, pi, gi int) (twoChainResult, bool, error) {
			r, err := evalTwoChains(ctx, cfg, tk, n, pi, gi)
			return r, r.ok, err
		},
		point: func(n int, results []twoChainResult) error {
			var sims, sds, simBs, sdBs, rs, rbs []float64
			for _, r := range results {
				sims = append(sims, r.sim)
				sds = append(sds, r.sdiff)
				simBs = append(simBs, r.simB)
				sdBs = append(sdBs, r.sdiffB)
				if r.sim > 0 {
					rs = append(rs, (r.sdiff-r.sim)/r.sim)
				}
				if r.simB > 0 {
					rbs = append(rbs, (r.sdiffB-r.simB)/r.simB)
				}
			}
			abs.AddRow(n, mean(sims), mean(sds), mean(simBs), mean(sdBs))
			ratio.AddRow(n, mean(rs), mean(rbs))
			if cfg.Log != nil {
				fmt.Fprintf(cfg.Log, "len=%d: Sim=%.3f S-diff=%.3f Sim-B=%.3f S-diff-B=%.3f (ms, %d graphs)\n",
					n, mean(sims), mean(sds), mean(simBs), mean(sdBs), len(sims))
			}
			return nil
		},
		emptyErr: func(n int) error { return fmt.Errorf("exp: no usable graphs at chain length %d", n) },
	})
	if err != nil {
		return nil, nil, err
	}
	return abs, ratio, nil
}

func evalTwoChains(ctx context.Context, cfg Config, tk *span.Track, n, pi, gi int) (twoChainResult, error) {
	if failGraphHook != nil {
		if err := failGraphHook(pi, gi); err != nil {
			return twoChainResult{}, err
		}
	}
	ws := tk.Start("workload")
	defer ws.End(span.Int("len", int64(n)), span.Int("graph", int64(gi)))
	rng := rand.New(rand.NewSource(cfg.Seed + 17 + int64(pi)*1_000_003 + int64(gi)*7_919))
	gcfg := randgraph.Config{ECUs: cfg.ECUs, StimulusSources: true}
	for attempt := 0; attempt < 60; attempt++ {
		if err := ctx.Err(); err != nil {
			return twoChainResult{}, err
		}
		stopGen := stage(genHist, tk, "generate")
		g, la, nu, err := randgraph.TwoChains(n, gcfg, rng)
		if err != nil {
			stopGen()
			continue
		}
		waters.Populate(g, rng)
		graphsGenerated.Inc()
		stopGen()
		stop := stage(analysisHist, tk, "analysis")
		a, ok := cfg.newAnalysis(g, tk)
		if !ok {
			stop()
			continue
		}
		plan, err := a.Optimize(la, nu)
		stop()
		if err != nil {
			continue
		}
		sink := la.Tail()
		simPlain, err := simulateMaxDisparity(ctx, cfg, tk, g, sink, rng)
		if err != nil {
			return twoChainResult{}, err
		}
		buffered := g.Clone()
		if err := plan.Apply(buffered); err != nil {
			continue
		}
		simBuf, err := simulateMaxDisparity(ctx, cfg, tk, buffered, sink, rng)
		if err != nil {
			return twoChainResult{}, err
		}
		graphsUsed.Inc()
		return twoChainResult{
			sim:    simPlain.Milliseconds(),
			sdiff:  plan.Before.Milliseconds(),
			simB:   simBuf.Milliseconds(),
			sdiffB: plan.After.Milliseconds(),
			ok:     true,
		}, nil
	}
	return twoChainResult{}, nil
}
