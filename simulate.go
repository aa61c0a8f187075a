package disparity

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/timeu"
	"repro/internal/trace/span"
)

// ExecModel draws job execution times during simulation.
type ExecModel = sim.ExecModel

// Execution-time models for SimConfig.Exec.
var (
	// ExecWCET runs every job at its WCET.
	ExecWCET ExecModel = sim.WCETExec{}
	// ExecBCET runs every job at its BCET.
	ExecBCET ExecModel = sim.BCETExec{}
	// ExecUniform draws uniformly from [BCET, WCET].
	ExecUniform ExecModel = sim.UniformExec{}
	// ExecExtremes draws BCET or WCET with equal probability — the model
	// that most readily exhibits worst-case disparity patterns.
	ExecExtremes ExecModel = sim.ExtremesExec{P: 0.5}
)

// Observer receives completed jobs during simulation; see package
// internal/sim for the Job fields.
type Observer = sim.Observer

// JumpStats reports whether a run used steady-state jump-ahead and how
// much simulated time it skipped; see internal/sim and DESIGN.md
// "Steady-state jump-ahead".
type JumpStats = sim.JumpStats

// Job is one completed execution instance, as passed to observers.
type Job = sim.Job

// SimConfig parameterizes Simulate.
type SimConfig struct {
	// Horizon is the simulated time span (required, positive).
	Horizon Time
	// Warmup discards jobs finishing before it from the built-in
	// measurements, letting buffers reach steady state.
	Warmup Time
	// Exec defaults to ExecWCET.
	Exec ExecModel
	// Seed drives all randomness of the run.
	Seed int64
	// Observers receive every completed job, in addition to the built-in
	// disparity measurement.
	Observers []Observer
	// Trace, when non-nil, records engine-level spans (one per run plus
	// sampled progress chunks) on the track; see internal/trace/span.
	Trace *span.Track
	// DisableJumpAhead forces full execution of every job instead of
	// skipping repeated steady-state hyperperiod cycles. Results are
	// bit-identical either way; the switch exists for benchmarking and
	// differential testing.
	DisableJumpAhead bool
}

// ChannelStats is the token flow of one edge during a simulation; Lost
// counts tokens evicted before any consumer read them (§IV's wasted
// computation).
type ChannelStats = sim.ChannelStats

// SimResult reports a simulation run.
type SimResult struct {
	// MaxDisparity is the largest observed time disparity per task
	// (Definition 2), for tasks that produced at least one output after
	// warm-up.
	MaxDisparity map[TaskID]Time
	// Jobs is the number of completed jobs.
	Jobs int64
	// Overruns counts releases that found a previous job of the same task
	// unfinished (0 for schedulable systems).
	Overruns int64
	// Channels reports per-edge token flow (writes, reads, tokens lost
	// unread), in the graph's edge order.
	Channels []ChannelStats
	// Jump reports the steady-state jump-ahead outcome of the run:
	// whether the engine was eligible to skip repeated hyperperiod
	// cycles, and how many it skipped. Purely informational — the
	// remaining fields are identical with jump-ahead on or off.
	Jump JumpStats
}

// engineConfig is the one SimConfig → sim.Config conversion: every
// field carries over, and the caller's built-in measurement observer
// runs ahead of cfg.Observers.
func (cfg SimConfig) engineConfig(builtin Observer) (sim.Config, error) {
	if cfg.Horizon <= 0 {
		return sim.Config{}, fmt.Errorf("disparity: non-positive horizon %v", cfg.Horizon)
	}
	return sim.Config{
		Horizon:          cfg.Horizon,
		Exec:             cfg.Exec,
		Seed:             cfg.Seed,
		Observers:        append([]Observer{builtin}, cfg.Observers...),
		Trace:            cfg.Trace,
		DisableJumpAhead: cfg.DisableJumpAhead,
	}, nil
}

// Simulate runs the discrete-event simulator of §II-B on the graph and
// returns the observed maximum disparities. The observed value is an
// achievable lower bound on the worst case: Analyze's bounds must always
// dominate it.
func Simulate(g *Graph, cfg SimConfig) (*SimResult, error) {
	obs := sim.NewDisparityObserver(cfg.Warmup)
	sc, err := cfg.engineConfig(obs)
	if err != nil {
		return nil, err
	}
	eng, err := sim.NewEngine(g)
	if err != nil {
		return nil, err
	}
	stats, err := eng.Run(sc)
	if err != nil {
		return nil, err
	}
	out := &SimResult{
		MaxDisparity: make(map[TaskID]Time, g.NumTasks()),
		Jobs:         stats.Jobs,
		Overruns:     stats.Overruns,
		Channels:     stats.Channels,
		Jump:         eng.LastJump(),
	}
	for i := 0; i < g.NumTasks(); i++ {
		id := model.TaskID(i)
		out.MaxDisparity[id] = obs.Max(id)
	}
	return out, nil
}

// MeasureBackward simulates the graph and returns the observed range of
// backward times from the source task to the tail task, for validating
// the analytical bounds ℬ(π) ≤ observed ≤ 𝒲(π).
func MeasureBackward(g *Graph, tail, source TaskID, cfg SimConfig) (min, max Time, err error) {
	bo := sim.NewBackwardObserver(tail, source, cfg.Warmup)
	sc, err := cfg.engineConfig(bo)
	if err != nil {
		return 0, 0, err
	}
	if _, err := sim.Run(g, sc); err != nil {
		return 0, 0, err
	}
	lo, hi, ok := bo.Range()
	if !ok {
		return 0, 0, fmt.Errorf("disparity: no data from task %d reached task %d within the horizon",
			source, tail)
	}
	return lo, hi, nil
}

// RandomOffsets draws every task's release offset uniformly from
// [0, period), the offset model of the paper's evaluation.
func RandomOffsets(g *Graph, seed int64) {
	rng := newRand(seed)
	for i := 0; i < g.NumTasks(); i++ {
		t := g.Task(model.TaskID(i))
		t.Offset = timeu.Time(rng.Int63n(int64(t.Period)))
	}
}
