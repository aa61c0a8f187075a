package methods

import (
	"context"

	"repro/internal/backward"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/timeu"
	"repro/internal/waters"
)

// LatencyValues holds one observed value per end-to-end latency metric
// (MRT, MRRT, MDA, MRDA), indexed by backward.Latency.
type LatencyValues [4]timeu.Time

// Get returns the value for one metric.
func (v LatencyValues) Get(m backward.Latency) timeu.Time { return v[m] }

// SimLatencies is the measured ground truth of the latency metric
// family: it runs ec.Runs simulations with fresh random offsets and
// returns, per metric, the maximum observed value for the task over all
// sources and runs — exactly the quantity core.Analysis.Latency bounds,
// which the differential harness in internal/integration enforces per
// workload. It consumes ec.RNG exactly like Sim.Eval (one offset draw
// plus one seed per run), and all four metrics come from one
// simulation pass.
func SimLatencies(ctx context.Context, ec *Context, g *model.Graph, task model.TaskID) (LatencyValues, error) {
	var vals LatencyValues
	run, err := simRunner(ec, g, task)
	if err != nil {
		return vals, err
	}
	sources := g.Sources()
	var offsets []timeu.Time
	for i := 0; i < ec.Runs; i++ {
		if err := ctx.Err(); err != nil {
			return vals, err
		}
		offsets = waters.DrawOffsets(g, ec.RNG, offsets[:0])
		obs := sim.NewLatencyObserver(task, sources, ec.Warmup)
		if err := run(offsets, obs); err != nil {
			return vals, err
		}
		for _, src := range sources {
			if v, ok := obs.MaxReaction(src); ok {
				vals[backward.LatencyMRT] = timeu.Max(vals[backward.LatencyMRT], v)
			}
			if v, ok := obs.MaxReducedReaction(src); ok {
				vals[backward.LatencyMRRT] = timeu.Max(vals[backward.LatencyMRRT], v)
			}
			if v, ok := obs.MaxAge(src); ok {
				vals[backward.LatencyMDA] = timeu.Max(vals[backward.LatencyMDA], v)
			}
			if v, ok := obs.MaxReducedAge(src); ok {
				vals[backward.LatencyMRDA] = timeu.Max(vals[backward.LatencyMRDA], v)
			}
		}
	}
	return vals, nil
}
