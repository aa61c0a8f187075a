package exp

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/backward"
	"repro/internal/explain"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/timeu"
	"repro/internal/trace/span"
	"repro/internal/waters"
)

// Simulation throughput metrics. The telemetry job counters and the
// manifest's stage breakdown read these names.
var (
	simJobs = metrics.C("exp.sim.jobs")
	// simRunHist times each individual engine run (OffsetsPerGraph of
	// them per simulated graph).
	simRunHist = metrics.H("exp.sim.run")
)

// simRunner builds the engine one graph's runs share and returns its
// run step: one timed run with a fresh seed from rng that tallies its
// jobs and its jump-ahead outcome — a sweep that stays on the slow
// path (e.g. ExtremesExec is jump-ineligible) says why in -metrics and
// the -explain record. The engine re-reads offsets and resets its
// pools per run, so the per-graph setup (channel topology, origin
// indexing) and the pools' steady-state populations are amortized over
// the runs. A simulator validation failure is a programming error
// upstream; it is returned so the sweep aborts loudly instead of
// skewing results silently. A warm-up outside [0, Horizon) is an
// error too, since it would discard every observation and read 0; it
// is checked here rather than in validate because only the simulating
// sweeps read it.
func (cfg *Config) simRunner(g *model.Graph, task model.TaskID, rng *rand.Rand, tk *span.Track) (func(offsets []timeu.Time, obs sim.Observer) error, error) {
	if cfg.Warmup < 0 || cfg.Warmup >= cfg.Horizon {
		return nil, fmt.Errorf("exp: warm-up %v outside [0, horizon %v)", cfg.Warmup, cfg.Horizon)
	}
	fail := func(err error) error {
		return fmt.Errorf("exp: simulation of task %s's graph failed: %w", g.Task(task).Name, err)
	}
	batch, err := sim.NewBatch(g, sim.Config{
		Horizon:          cfg.Horizon,
		Exec:             cfg.Exec,
		Trace:            tk,
		DisableJumpAhead: cfg.DisableJumpAhead,
	})
	if err != nil {
		return nil, fail(err)
	}
	return func(offsets []timeu.Time, obs sim.Observer) error {
		stopRun := simRunHist.Start()
		res, err := batch.Run(sim.BatchRun{
			Seed:      rng.Int63(),
			Offsets:   offsets,
			Observers: []sim.Observer{obs},
		})
		stopRun()
		if err != nil {
			return fail(err)
		}
		simJobs.Add(res.Stats.Jobs)
		explain.CountJump(res.Jump)
		return nil
	}, nil
}

// simulateMaxDisparity is the Sim column: cfg.OffsetsPerGraph runs with
// fresh random offsets from rng, returning the maximum observed
// disparity of the task.
func simulateMaxDisparity(ctx context.Context, cfg Config, tk *span.Track, g *model.Graph, task model.TaskID, rng *rand.Rand) (timeu.Time, error) {
	defer stage(simHist, tk, "simulate")()
	run, err := cfg.simRunner(g, task, rng, tk)
	if err != nil {
		return 0, err
	}
	var worst timeu.Time
	for i := 0; i < cfg.OffsetsPerGraph; i++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		// Offsets stay on the graph (not in BatchRun.Offsets) on
		// purpose: the adversarial-offset ablation seeds its search from
		// the graph's post-sweep offsets, a dependency the sweep goldens
		// pin down.
		waters.RandomOffsets(g, rng)
		obs := sim.NewDisparityObserver(cfg.Warmup, task)
		if err := run(nil, obs); err != nil {
			return 0, err
		}
		worst = timeu.Max(worst, obs.Max(task))
	}
	return worst, nil
}

// simulateLatencies is the measured ground truth of the latency metric
// family: cfg.OffsetsPerGraph runs with fresh random offsets and, per
// metric (indexed by backward.Latency), the maximum observed value for
// the task over all sources and runs — exactly the quantity
// core.Analysis.Latency bounds, which the differential harness in
// internal/integration enforces per workload. It consumes rng exactly
// like simulateMaxDisparity (one offset draw plus one seed per run),
// and all four metrics come from one simulation pass.
func simulateLatencies(ctx context.Context, cfg Config, tk *span.Track, g *model.Graph, task model.TaskID, rng *rand.Rand) ([4]timeu.Time, error) {
	defer stage(simHist, tk, "simulate")()
	var vals [4]timeu.Time
	run, err := cfg.simRunner(g, task, rng, tk)
	if err != nil {
		return vals, err
	}
	sources := g.Sources()
	var offsets []timeu.Time
	for i := 0; i < cfg.OffsetsPerGraph; i++ {
		if err := ctx.Err(); err != nil {
			return vals, err
		}
		offsets = waters.DrawOffsets(g, rng, offsets[:0])
		obs := sim.NewLatencyObserver(task, sources, cfg.Warmup)
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
