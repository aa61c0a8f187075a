package exp

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/trace/span"
)

// boundsResult carries the per-graph analysis bounds of BoundsSweep.
type boundsResult struct {
	pdiff, sdiff, sdiffB float64 // milliseconds
	ok                   bool
}

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
	err := runSweep(cfg, sweepSpec[boundsResult]{
		prefix: "n=",
		eval: func(ctx context.Context, tk *span.Track, n, pi, gi int) (boundsResult, bool, error) {
			r, err := evalGNMBounds(ctx, cfg, tk, n, pi, gi)
			return r, r.ok, err
		},
		point: func(n int, results []boundsResult) error {
			var pds, sds, sbs []float64
			for _, r := range results {
				pds = append(pds, r.pdiff)
				sds = append(sds, r.sdiff)
				sbs = append(sbs, r.sdiffB)
			}
			tbl.AddRow(n, mean(pds), mean(sds), mean(sbs))
			if cfg.Log != nil {
				fmt.Fprintf(cfg.Log, "n=%d: P-diff=%.3fms S-diff=%.3fms S-diff-B=%.3fms (%d graphs)\n",
					n, mean(pds), mean(sds), mean(sbs), len(pds))
			}
			return nil
		},
		emptyErr: func(n int) error { return fmt.Errorf("exp: no usable graphs at point n=%d", n) },
	})
	if err != nil {
		return nil, err
	}
	return tbl, nil
}

// evalGNMBounds mirrors evalGNMGraph's generation (identical rng stream:
// the simulation draws it skips all happen after generation) but stops
// at the analysis: P-diff, S-diff, and the greedy-buffered S-diff.
func evalGNMBounds(ctx context.Context, cfg Config, tk *span.Track, n, pi, gi int) (boundsResult, error) {
	if failGraphHook != nil {
		if err := failGraphHook(pi, gi); err != nil {
			return boundsResult{}, err
		}
	}
	ws := tk.Start("workload")
	defer ws.End(span.Int("n", int64(n)), span.Int("graph", int64(gi)))
	rng := newGraphRNG(cfg.Seed, pi, gi)
	for attempt := 0; attempt < 60; attempt++ {
		if err := ctx.Err(); err != nil {
			return boundsResult{}, err
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
		graphsUsed.Inc()
		return boundsResult{
			pdiff:  pd.Bound.Milliseconds(),
			sdiff:  sd.Bound.Milliseconds(),
			sdiffB: greedy.After.Milliseconds(),
			ok:     true,
		}, nil
	}
	return boundsResult{}, nil
}
