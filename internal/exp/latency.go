package exp

import (
	"context"
	"fmt"

	"repro/internal/backward"
	"repro/internal/trace/span"
)

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
	err := runSweep(cfg, sweepSpec{prefix: "n=", eval: evalGNMLatency, tables: []*Table{tbl}})
	if err != nil {
		return nil, err
	}
	return tbl, nil
}

// evalGNMLatency mirrors evalGNMGraph's generation (identical rng
// stream) but evaluates the latency metric family: four analytic
// bounds off the shared trie tables plus one simulation pass measuring
// all four ground truths. Its row follows latencyColumns: per metric,
// the bound, then the simulated value.
func evalGNMLatency(ctx context.Context, cfg Config, tk *span.Track, n, pi, gi int) ([]float64, error) {
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
		row := make([]float64, 2*len(backward.Latencies()))
		truncated := false
		for i, l := range backward.Latencies() {
			tl, err := a.Latency(sink, l, cfg.MaxChains)
			if err != nil {
				stop()
				return nil, err
			}
			if tl.Truncated {
				truncated = true
				break
			}
			row[2*i] = tl.Bound.Milliseconds()
		}
		stop()
		if truncated {
			// Exponential-path outlier: the bounds cover only part of 𝒫.
			cfg.noteTruncation(fmt.Sprintf("n=%d graph %d", n, gi))
			continue
		}
		vals, err := simulateLatencies(ctx, cfg, tk, g, sink, rng)
		if err != nil {
			return nil, err
		}
		for i, l := range backward.Latencies() {
			row[2*i+1] = vals[l].Milliseconds()
		}
		return row, nil
	}
	return nil, nil
}
