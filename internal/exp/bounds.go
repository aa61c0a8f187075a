package exp

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/trace/span"
)

// BoundsSweep runs the analysis side of the Fig. 6(a) experiment without
// any simulation: per point it generates the same GNM workloads as Fig6a
// (same seeds, same graphs) and reports the mean P-diff and S-diff task
// bounds plus S-diff-B, the S-diff bound after greedy Algorithm-1 buffer
// insertion. Columns are milliseconds.
//
// The simulation that dominates Fig6a's wall clock is absent, so this
// sweep measures the analysis engine itself.
func BoundsSweep(cfg Config) (*Table, error) {
	tbl := &Table{
		Title:   "Bounds sweep: analysis-only disparity bounds vs number of tasks (ms)",
		XLabel:  "tasks",
		Columns: []string{colPDiff, colSDiff, colSDiffB},
	}
	err := runSweep(cfg, sweepSpec{prefix: "n=", eval: evalGNMBounds, tables: []*Table{tbl}})
	if err != nil {
		return nil, err
	}
	return tbl, nil
}

// evalGNMBounds mirrors evalGNMGraph's generation (identical rng stream:
// the simulation draws it skips all happen after generation) but stops
// at the analysis: P-diff, S-diff, and the greedy-buffered S-diff.
func evalGNMBounds(ctx context.Context, cfg Config, tk *span.Track, n, pi, gi int) ([]float64, error) {
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
		if pd.Truncated {
			// Exponential-path outlier: the bound covers only part of 𝒫.
			stop()
			cfg.noteTruncation(fmt.Sprintf("n=%d graph %d", n, gi))
			continue
		}
		sd, err := a.DisparityBound(sink, core.SDiff, cfg.MaxChains)
		if err != nil || pd.NumPairs == 0 {
			stop()
			continue
		}
		greedy, err := a.OptimizeTaskGreedy(sink, cfg.MaxChains, greedyRounds)
		stop()
		if err != nil {
			continue
		}
		if sd.Truncated || greedy.Truncated {
			cfg.noteTruncation(fmt.Sprintf("n=%d graph %d", n, gi))
			continue
		}
		return []float64{pd.Bound.Milliseconds(), sd.Bound.Milliseconds(), greedy.After.Milliseconds()}, nil
	}
	return nil, nil
}
