package exp

import (
	"context"
	"fmt"

	"repro/internal/backward"
	"repro/internal/trace/span"
)

// latencyResult carries the per-graph values of LatencySweep: per
// metric, the analytic bound and the simulated ground truth at the
// sink, in milliseconds.
type latencyResult struct {
	bound [4]float64 // indexed by backward.Latency
	sim   [4]float64
	ok    bool
}

// latencyColumns interleaves per-metric column pairs: MRT, MRT-sim,
// MRRT, MRRT-sim, MDA, MDA-sim, MRDA, MRDA-sim.
func latencyColumns() []string {
	var cols []string
	for _, l := range backward.Latencies() {
		cols = append(cols, l.String(), l.String()+"-sim")
	}
	return cols
}

// LatencySweep evaluates the end-to-end latency metric family on the
// same GNM workloads as the Fig. 6(a) sweep (same seeds, same graphs):
// per point, the mean analytic bound and mean simulated maximum of each
// metric at the sink. Columns are milliseconds. The simulated values
// of all four metrics come from one shared simulation pass per graph
// (simulateLatencies), so the sweep costs one Sim-column sweep, not
// four. Graphs whose chain enumeration truncates are counted and
// regenerated like every other sweep — truncated bounds cover a partial
// chain set and never enter the averages.
func LatencySweep(cfg Config) (*Table, error) {
	tbl := &Table{
		Title:   "Latency sweep: end-to-end latency bounds vs simulation vs number of tasks (ms)",
		XLabel:  "tasks",
		Columns: latencyColumns(),
	}
	err := runSweep(cfg, sweepSpec[latencyResult]{
		prefix: "n=",
		eval: func(ctx context.Context, tk *span.Track, n, pi, gi int) (latencyResult, bool, error) {
			r, err := evalGNMLatency(ctx, cfg, tk, n, pi, gi)
			return r, r.ok, err
		},
		point: func(n int, results []latencyResult) error {
			cells := make([]float64, 0, 8)
			for _, l := range backward.Latencies() {
				var bs, ss []float64
				for _, r := range results {
					bs = append(bs, r.bound[l])
					ss = append(ss, r.sim[l])
				}
				cells = append(cells, mean(bs), mean(ss))
			}
			tbl.AddRow(n, cells...)
			if cfg.Log != nil {
				fmt.Fprintf(cfg.Log, "n=%d: MRT=%.3fms MRT-sim=%.3fms MDA=%.3fms MDA-sim=%.3fms (%d graphs)\n",
					n, cells[0], cells[1], cells[4], cells[5], len(results))
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

// evalGNMLatency mirrors evalGNMGraph's generation (identical rng
// stream) but evaluates the latency metric family: four analytic
// bounds off the shared trie tables plus one simulation pass measuring
// all four ground truths.
func evalGNMLatency(ctx context.Context, cfg Config, tk *span.Track, n, pi, gi int) (latencyResult, error) {
	if failGraphHook != nil {
		if err := failGraphHook(pi, gi); err != nil {
			return latencyResult{}, err
		}
	}
	ws := tk.Start("workload")
	defer ws.End(span.Int("n", int64(n)), span.Int("graph", int64(gi)))
	rng := newGraphRNG(cfg.Seed, pi, gi)
	for attempt := 0; attempt < 60; attempt++ {
		if err := ctx.Err(); err != nil {
			return latencyResult{}, err
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
		var r latencyResult
		truncated := false
		for _, l := range backward.Latencies() {
			tl, err := a.Latency(sink, l, cfg.MaxChains)
			if err != nil {
				stop()
				return latencyResult{}, err
			}
			if tl.Truncated {
				truncated = true
				break
			}
			r.bound[l] = tl.Bound.Milliseconds()
		}
		stop()
		if truncated {
			// Exponential-path outlier: the bounds cover only part of 𝒫.
			cfg.noteTruncation(fmt.Sprintf("n=%d graph %d", n, gi))
			continue
		}
		vals, err := simulateLatencies(ctx, cfg, tk, g, sink, rng)
		if err != nil {
			return latencyResult{}, err
		}
		for _, l := range backward.Latencies() {
			r.sim[l] = vals[l].Milliseconds()
		}
		graphsUsed.Inc()
		r.ok = true
		return r, nil
	}
	return latencyResult{}, nil
}
