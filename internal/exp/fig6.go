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

// Fig6a runs the Fig. 6(a) experiment and returns the absolute series
// (milliseconds): Sim, P-diff, S-diff versus task count.
func Fig6a(cfg Config) (*Table, error) {
	abs, _, err := Fig6ab(cfg)
	return abs, err
}

// Fig6b runs the same experiment as Fig6a but returns the incremental
// ratios (bound − Sim)/Sim of P-diff and S-diff.
func Fig6b(cfg Config) (*Table, error) {
	_, ratio, err := Fig6ab(cfg)
	return ratio, err
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
	err = runSweep(cfg, sweepSpec{prefix: "n=", eval: evalGNMGraph, tables: []*Table{abs, ratio}})
	if err != nil {
		return nil, nil, err
	}
	return abs, ratio, nil
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
// offset runs. Its row is Fig. 6(a)'s Sim, P-diff and S-diff, then
// Fig. 6(b)'s two ratios. A nil row marks graphs abandoned after
// repeated retries (unschedulable or degenerate draws); a non-nil error
// is a genuine failure that aborts the sweep.
func evalGNMGraph(ctx context.Context, cfg Config, tk *span.Track, n, pi, gi int) ([]float64, error) {
	rng := newGraphRNG(cfg.Seed, pi, gi)
	for attempt := 0; attempt < 60; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
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
			return nil, err
		}
		sim, pdiff, sdiff := simMax.Milliseconds(), pd.Bound.Milliseconds(), sd.Bound.Milliseconds()
		return []float64{sim, pdiff, sdiff, incRatio(pdiff, sim), incRatio(sdiff, sim)}, nil
	}
	return nil, nil
}

// Fig6c runs the Fig. 6(c) experiment: two independent chains merged at a
// sink, with and without Algorithm 1's buffers. Columns (ms): Sim,
// S-diff, Sim-B, S-diff-B versus per-chain task count.
func Fig6c(cfg Config) (*Table, error) {
	abs, _, err := Fig6cd(cfg)
	return abs, err
}

// Fig6d returns the incremental-ratio view of Fig6c: (S-diff − Sim)/Sim
// and (S-diff-B − Sim-B)/Sim-B.
func Fig6d(cfg Config) (*Table, error) {
	_, ratio, err := Fig6cd(cfg)
	return ratio, err
}

// Fig6cd runs the Fig. 6(c)/(d) experiment once and returns both views.
func Fig6cd(cfg Config) (abs, ratio *Table, err error) {
	abs = &Table{
		Title:   "Fig 6(c): two-chain disparity with buffer optimization (ms)",
		XLabel:  "chainlen",
		Columns: []string{colSim, colSDiff, colSim + "-B", colSDiffB},
	}
	ratio = &Table{
		Title:   "Fig 6(d): incremental ratio with buffer optimization",
		XLabel:  "chainlen",
		Columns: []string{colSDiff, colSDiffB},
	}
	err = runSweep(cfg, sweepSpec{prefix: "len=", eval: evalTwoChains, tables: []*Table{abs, ratio}})
	if err != nil {
		return nil, nil, err
	}
	return abs, ratio, nil
}

// evalTwoChains generates the gi-th two-chain graph for chain length n
// and evaluates it without and with Algorithm 1's buffers. Its row is
// Fig. 6(c)'s Sim, S-diff, Sim-B and S-diff-B, then Fig. 6(d)'s two
// ratios.
func evalTwoChains(ctx context.Context, cfg Config, tk *span.Track, n, pi, gi int) ([]float64, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 17 + int64(pi)*1_000_003 + int64(gi)*7_919))
	gcfg := randgraph.Config{ECUs: cfg.ECUs, StimulusSources: true}
	for attempt := 0; attempt < 60; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
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
			return nil, err
		}
		buffered := g.Clone()
		if err := plan.Apply(buffered); err != nil {
			continue
		}
		simBuf, err := simulateMaxDisparity(ctx, cfg, tk, buffered, sink, rng)
		if err != nil {
			return nil, err
		}
		sim, sdiff := simPlain.Milliseconds(), plan.Before.Milliseconds()
		simB, sdiffB := simBuf.Milliseconds(), plan.After.Milliseconds()
		return []float64{sim, sdiff, simB, sdiffB, incRatio(sdiff, sim), incRatio(sdiffB, simB)}, nil
	}
	return nil, nil
}
