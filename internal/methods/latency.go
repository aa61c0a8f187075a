// End-to-end latency metric methods: one analytic bound and one
// measured simulation ground truth per metric of the family
// (backward.Latency: MRT, MRRT, MDA, MRDA). The analytic methods ride
// the core trie fast path; the measured ones drive
// sim.LatencyObserver on the pooled engine and report the maximum over
// all sources and runs — exactly the quantity the analytic bound
// dominates, which the differential harness in internal/integration
// enforces per workload.
package methods

import (
	"context"
	"fmt"

	"repro/internal/backward"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/timeu"
	"repro/internal/waters"
)

// latencyBound is the analytic bound for one latency metric.
type latencyBound struct {
	m backward.Latency
}

func (b latencyBound) Name() string   { return b.m.String() }
func (b latencyBound) Ref() string    { return b.m.Ref() }
func (latencyBound) Kind() Kind       { return Analytic }
func (latencyBound) Optimizing() bool { return false }
func (b latencyBound) Metric() Metric { return MetricOf(b.m) }

func (b latencyBound) Eval(_ context.Context, ec *Context, _ *model.Graph, task model.TaskID) (Result, error) {
	tl, err := ec.Analysis.Latency(task, b.m, ec.MaxChains)
	if err != nil {
		return Result{}, err
	}
	return Result{Bound: tl.Bound, Latency: tl, Truncated: tl.Truncated}, nil
}

// latencySim is the measured ground truth for one latency metric.
type latencySim struct {
	m backward.Latency
}

func (s latencySim) Name() string   { return s.m.String() + "-sim" }
func (latencySim) Ref() string      { return "" }
func (latencySim) Kind() Kind       { return Measured }
func (latencySim) Optimizing() bool { return false }
func (s latencySim) Metric() Metric { return MetricOf(s.m) }

func (s latencySim) Eval(ctx context.Context, ec *Context, g *model.Graph, task model.TaskID) (Result, error) {
	vals, err := SimLatencies(ctx, ec, g, task)
	if err != nil {
		return Result{}, err
	}
	return Result{Bound: vals.Get(s.m)}, nil
}

// LatencyValues holds one observed value per latency metric, indexed by
// backward.Latency.
type LatencyValues [4]timeu.Time

// Get returns the value for one metric.
func (v LatencyValues) Get(m backward.Latency) timeu.Time { return v[m] }

// SimLatencies runs ec.Runs simulations with fresh random offsets and
// returns, per latency metric, the maximum observed value for the task
// over all sources and runs. It consumes ec.RNG exactly like the
// disparity simMethod (one offset draw plus one seed per run). All four
// metrics come from one simulation pass — callers evaluating several
// "-sim" methods on the same point should call this once and slice it
// rather than Eval'ing each method (which would re-simulate).
func SimLatencies(ctx context.Context, ec *Context, g *model.Graph, task model.TaskID) (LatencyValues, error) {
	var vals LatencyValues
	batch, err := sim.NewBatch(g, sim.Config{
		Horizon:          ec.Horizon,
		Exec:             ec.Exec,
		Trace:            ec.Track,
		DisableJumpAhead: ec.DisableJumpAhead,
	})
	if err != nil {
		return vals, fmt.Errorf("methods: simulation of task %s's graph failed: %w", g.Task(task).Name, err)
	}
	sources := g.Sources()
	var offsets []timeu.Time
	for run := 0; run < ec.Runs; run++ {
		if err := ctx.Err(); err != nil {
			return vals, err
		}
		offsets = waters.DrawOffsets(g, ec.RNG, offsets[:0])
		obs := sim.NewLatencyObserver(task, sources, ec.Warmup)
		stopRun := simRunHist.Start()
		res, err := batch.Run(sim.BatchRun{
			Seed:      ec.RNG.Int63(),
			Offsets:   offsets,
			Observers: []sim.Observer{obs},
		})
		stopRun()
		if err != nil {
			return vals, fmt.Errorf("methods: simulation of task %s's graph failed: %w", g.Task(task).Name, err)
		}
		simJobs.Add(res.Stats.Jobs)
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
