// Package methods is the paper's fixed set of worst-case time
// disparity evaluation methods: the analytic P-diff and S-diff bounds
// (Theorems 1/2), the greedily buffered S-diff-B bound (Algorithm 1 +
// Theorem 3), and the measured simulation value (Fig. 6). Every
// consumer (the internal/exp sweeps, cmd/disparity-analyze,
// cmd/disparity-report) evaluates and labels these methods through one
// Eval interface instead of keeping its own evaluation scaffold.
package methods

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/explain"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/timeu"
	"repro/internal/trace/span"
	"repro/internal/waters"
)

// Context carries the evaluation inputs a Method may need. Analytic
// methods read Analysis/MaxChains (and GreedyRounds for S-diff-B);
// measured methods read the simulation fields. The zero value of an
// unused field is fine.
type Context struct {
	// Analysis is the analysis engine bound to the
	// graph under evaluation. Required by analytic methods.
	Analysis *core.Analysis
	// MaxChains caps chain enumeration (0 = the core default).
	MaxChains int
	// GreedyRounds caps Algorithm 1's greedy multi-pair loop for
	// S-diff-B (0 = run to convergence).
	GreedyRounds int
	// FullDetail asks analytic methods for the complete per-pair
	// breakdown (core.Disparity) instead of the bound-only fast path
	// (core.DisparityBound). Reports and the analyze CLI set it; sweeps
	// leave it false — the bounds are identical either way, only
	// Detail.Pairs shrinks to the argmax pair.
	FullDetail bool

	// Horizon is the simulated time per run.
	Horizon timeu.Time
	// Warmup discards early jobs so buffered channels reach steady state.
	Warmup timeu.Time
	// Runs is how many random-offset runs the simulation method takes
	// the maximum over.
	Runs int
	// Exec draws job execution times during simulation.
	Exec sim.ExecModel
	// RNG is the caller's deterministic stream; the simulation method
	// draws offsets and per-run engine seeds from it in a fixed order.
	RNG *rand.Rand
	// Track, when non-nil, receives the per-run simulation spans.
	Track *span.Track
	// DisableJumpAhead forces full execution instead of steady-state
	// cycle skipping; results are identical either way (differential
	// and benchmarking switch).
	DisableJumpAhead bool
}

// Result is one method's evaluation of one task.
type Result struct {
	// Bound is the method's headline value: an upper bound for analytic
	// methods, the observed maximum for measured ones.
	Bound timeu.Time
	// Detail is the full per-pair analysis, when the method has one.
	Detail *core.TaskDisparity
	// Greedy is the buffer plan behind S-diff-B's bound.
	Greedy *core.GreedyResult
	// Truncated reports that the chain enumeration behind the value hit
	// the MaxChains cap, i.e. the bound covers a partial chain set.
	// Sweep drivers discard such evaluations and count them. Cause
	// names the limit that was hit (chain cap vs trie node budget).
	Truncated bool
	Cause     core.TruncationCause
}

// Method is one way of attaching a worst-case time disparity value to a
// task: an analytic bound or a measured simulation estimate.
type Method interface {
	// Name is the method's display name; sweep tables and reports use
	// it as the column/row label ("P-diff", "Sim", ...).
	Name() string
	// Ref is the paper artifact the method implements ("Theorem 1"),
	// or "" when it has none.
	Ref() string
	// Eval computes the method's value for task in g. Analytic methods
	// require ec.Analysis to be bound to g.
	Eval(ctx context.Context, ec *Context, g *model.Graph, task model.TaskID) (Result, error)
}

// The paper's four methods.
var (
	PDiff  Method = bound{core.PDiff, "Theorem 1"}
	SDiff  Method = bound{core.SDiff, "Theorem 2"}
	SDiffB Method = sdiffBMethod{}
	Sim    Method = simMethod{}
)

// Bounds returns the plain analytic bounds a disparity report quotes
// side by side, in row order: P-diff, then S-diff.
func Bounds() []Method { return []Method{PDiff, SDiff} }

// CoreMethod returns the core.Method selector a plain Theorem-1/2 bound
// evaluates with, for callers that bypass the Result shape — e.g. the
// CLI's streaming per-pair listing, which drives core.ForEachPairBound
// directly once the pair count exceeds what it is willing to
// materialize. ok is false for S-diff-B and Sim.
func CoreMethod(m Method) (core.Method, bool) {
	b, ok := m.(bound)
	return b.m, ok
}

// Names maps methods to their display names, in order — the standard
// way to derive a sweep table's column list.
func Names(ms ...Method) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name()
	}
	return out
}

// bound is a plain analytic bound: Theorem 1 (P-diff) or Theorem 2
// (S-diff) on every chain pair of the task.
type bound struct {
	m   core.Method
	ref string
}

func (b bound) Name() string { return b.m.String() }
func (b bound) Ref() string  { return b.ref }

// Eval routes to the full-detail or bound-only engine per
// Context.FullDetail. Both return the same Bound, argmax pair, and
// Truncated flag.
func (b bound) Eval(_ context.Context, ec *Context, _ *model.Graph, task model.TaskID) (Result, error) {
	disparity := ec.Analysis.DisparityBound
	if ec.FullDetail {
		disparity = ec.Analysis.Disparity
	}
	td, err := disparity(task, b.m, ec.MaxChains)
	if err != nil {
		return Result{}, err
	}
	return Result{Bound: td.Bound, Detail: td, Truncated: td.Truncated, Cause: td.Cause}, nil
}

type sdiffBMethod struct{}

func (sdiffBMethod) Name() string { return core.SDiff.String() + "-B" }
func (sdiffBMethod) Ref() string  { return "Algorithm 1" }

func (sdiffBMethod) Eval(_ context.Context, ec *Context, _ *model.Graph, task model.TaskID) (Result, error) {
	greedy, err := ec.Analysis.OptimizeTaskGreedy(task, ec.MaxChains, ec.GreedyRounds)
	if err != nil {
		return Result{}, err
	}
	return Result{Bound: greedy.After, Greedy: greedy, Truncated: greedy.Truncated, Cause: greedy.Cause}, nil
}

// Simulation throughput metrics. The names predate this package (the
// sweeps always exported them); the metrics registry's get-or-create
// semantics keep every consumer — telemetry job counters, manifest
// stage breakdowns — on the same instances.
var (
	simJobs = metrics.C("exp.sim.jobs")
	// simRunHist times each individual engine run (Context.Runs of them
	// per evaluation).
	simRunHist = metrics.H("exp.sim.run")
)

type simMethod struct{}

func (simMethod) Name() string { return "Sim" }
func (simMethod) Ref() string  { return "" }

// Eval runs ec.Runs simulations with fresh random offsets and returns
// the maximum observed disparity of the task. One sim.Engine is built
// per graph and reused across the offset runs — the engine re-reads
// offsets and resets its pools per Run, so the per-graph setup (channel
// topology, origin indexing) and the pools' steady-state populations
// are amortized over a whole sweep. A simulator validation failure is a
// programming error upstream; it is returned (not swallowed) so callers
// abort loudly instead of skewing results silently.
func (simMethod) Eval(ctx context.Context, ec *Context, g *model.Graph, task model.TaskID) (Result, error) {
	run, err := simRunner(ec, g, task)
	if err != nil {
		return Result{}, err
	}
	var worst timeu.Time
	for i := 0; i < ec.Runs; i++ {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		// Offsets stay on the graph (not in BatchRun.Offsets) on
		// purpose: the adversarial-offset ablation seeds its search from
		// the graph's post-sweep offsets, a dependency the sweep goldens
		// pin down.
		waters.RandomOffsets(g, ec.RNG)
		obs := sim.NewDisparityObserver(ec.Warmup, task)
		if err := run(nil, obs); err != nil {
			return Result{}, err
		}
		worst = timeu.Max(worst, obs.Max(task))
	}
	return Result{Bound: worst}, nil
}

// simRunner builds the engine one evaluation's runs share and returns
// its run step: one timed run with a fresh seed from ec.RNG that
// tallies its jobs and its jump-ahead outcome — a sweep that stays on
// the slow path (e.g. ExtremesExec is jump-ineligible) says why in
// -metrics and the -explain record.
func simRunner(ec *Context, g *model.Graph, task model.TaskID) (func(offsets []timeu.Time, obs sim.Observer) error, error) {
	fail := func(err error) error {
		return fmt.Errorf("methods: simulation of task %s's graph failed: %w", g.Task(task).Name, err)
	}
	batch, err := sim.NewBatch(g, sim.Config{
		Horizon:          ec.Horizon,
		Exec:             ec.Exec,
		Trace:            ec.Track,
		DisableJumpAhead: ec.DisableJumpAhead,
	})
	if err != nil {
		return nil, fail(err)
	}
	return func(offsets []timeu.Time, obs sim.Observer) error {
		stopRun := simRunHist.Start()
		res, err := batch.Run(sim.BatchRun{
			Seed:      ec.RNG.Int63(),
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
