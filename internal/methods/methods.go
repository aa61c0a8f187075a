// Package methods is the registry of worst-case time disparity
// evaluation methods. Each method — the analytic P-diff and S-diff
// bounds (Theorems 1/2), the greedily buffered S-diff-B bound
// (Algorithm 1 + Theorem 3), and the measured simulation value — is
// registered once, and every consumer (the internal/exp sweeps,
// cmd/disparity-analyze, cmd/disparity-report) evaluates and labels
// methods through this registry instead of keeping its own hardcoded
// switch and column lists. Adding a bounding method is a Register
// call, not another copy of the evaluation scaffold.
package methods

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/backward"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/timeu"
	"repro/internal/trace/span"
	"repro/internal/waters"
)

// Kind classifies how a method obtains its value.
type Kind int

const (
	// Analytic methods compute a closed-form upper bound from the
	// analysis engine; they need Context.Analysis.
	Analytic Kind = iota
	// Measured methods observe a value from simulation runs; they need
	// Context's Horizon/Warmup/Exec/Runs/RNG.
	Measured
)

func (k Kind) String() string {
	switch k {
	case Analytic:
		return "analytic"
	case Measured:
		return "measured"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Metric classifies what quantity a method evaluates: the paper's
// worst-case time disparity, or one of the classical end-to-end latency
// metrics. Consumers group table columns by it — the disparity tables
// keep quoting only MetricDisparity methods side by side.
type Metric int

const (
	// MetricDisparity is the worst-case time disparity (Definition 3).
	MetricDisparity Metric = iota
	// MetricMRT is the maximum reaction time.
	MetricMRT
	// MetricMRRT is the maximum reduced reaction time.
	MetricMRRT
	// MetricMDA is the maximum data age.
	MetricMDA
	// MetricMRDA is the maximum reduced data age.
	MetricMRDA
)

func (m Metric) String() string {
	switch m {
	case MetricDisparity:
		return "disparity"
	case MetricMRT, MetricMRRT, MetricMDA, MetricMRDA:
		l, _ := m.Latency()
		return l.String()
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Latency maps the metric to its backward.Latency identifier; ok is
// false for MetricDisparity.
func (m Metric) Latency() (backward.Latency, bool) {
	switch m {
	case MetricMRT:
		return backward.LatencyMRT, true
	case MetricMRRT:
		return backward.LatencyMRRT, true
	case MetricMDA:
		return backward.LatencyMDA, true
	case MetricMRDA:
		return backward.LatencyMRDA, true
	default:
		return 0, false
	}
}

// MetricOf is the inverse of Metric.Latency.
func MetricOf(l backward.Latency) Metric {
	switch l {
	case backward.LatencyMRT:
		return MetricMRT
	case backward.LatencyMRRT:
		return MetricMRRT
	case backward.LatencyMDA:
		return MetricMDA
	case backward.LatencyMRDA:
		return MetricMRDA
	default:
		panic(fmt.Sprintf("methods: unknown latency %v", l))
	}
}

// Context carries the evaluation inputs a Method may need. Analytic
// methods read Analysis/MaxChains (and GreedyRounds for the optimizing
// ones); measured methods read the simulation fields. The zero value of
// an unused field is fine.
type Context struct {
	// Analysis is the analysis engine bound to the
	// graph under evaluation. Required by analytic methods.
	Analysis *core.Analysis
	// MaxChains caps chain enumeration (0 = the core default).
	MaxChains int
	// GreedyRounds caps Algorithm 1's greedy multi-pair loop for the
	// optimizing methods (0 = run to convergence).
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
	// Greedy is the buffer plan behind an optimizing method's bound.
	Greedy *core.GreedyResult
	// Latency is the task-level latency result, when the method
	// evaluates one of the latency metrics analytically.
	Latency *core.TaskLatency
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
	// Kind reports whether the value is analytic or measured.
	Kind() Kind
	// Optimizing reports whether the method redesigns the system
	// (inserts buffers) before bounding it.
	Optimizing() bool
	// Metric reports what quantity the method evaluates (disparity or
	// one of the latency metrics).
	Metric() Metric
	// Eval computes the method's value for task in g. Analytic methods
	// require ec.Analysis to be bound to g.
	Eval(ctx context.Context, ec *Context, g *model.Graph, task model.TaskID) (Result, error)
}

// The canonical method set. Registered in init; consumers may also
// reference them directly. The latency metric family (latency.go)
// registers one analytic bound and one "-sim" measured ground truth per
// metric, in backward.Latencies order.
var (
	PDiff  Method = pdiffMethod{}
	SDiff  Method = sdiffMethod{}
	SDiffB Method = sdiffBMethod{}
	Sim    Method = simMethod{}
)

var (
	regMu    sync.RWMutex
	registry []Method
)

func init() {
	Register(PDiff)
	Register(SDiff)
	Register(SDiffB)
	Register(Sim)
	for _, l := range backward.Latencies() {
		Register(latencyBound{l})
		Register(latencySim{l})
	}
}

// Register adds a method to the registry. Registration order is
// preserved by All and Bounds; duplicate names panic (they would make
// table columns ambiguous).
func Register(m Method) {
	regMu.Lock()
	defer regMu.Unlock()
	for _, have := range registry {
		if have.Name() == m.Name() {
			panic(fmt.Sprintf("methods: duplicate registration of %q", m.Name()))
		}
	}
	registry = append(registry, m)
}

// All returns every registered method in registration order.
func All() []Method {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Method, len(registry))
	copy(out, registry)
	return out
}

// Bounds returns the analytic, non-optimizing disparity methods in
// registration order: the per-task bounds a disparity report quotes
// side by side.
func Bounds() []Method {
	regMu.RLock()
	defer regMu.RUnlock()
	var out []Method
	for _, m := range registry {
		if m.Kind() == Analytic && !m.Optimizing() && m.Metric() == MetricDisparity {
			out = append(out, m)
		}
	}
	return out
}

// LatencyAnalytic returns the analytic latency-metric methods in
// registration order (MRT, MRRT, MDA, MRDA).
func LatencyAnalytic() []Method {
	regMu.RLock()
	defer regMu.RUnlock()
	var out []Method
	for _, m := range registry {
		if m.Kind() == Analytic && m.Metric() != MetricDisparity {
			out = append(out, m)
		}
	}
	return out
}

// LatencyMeasured returns the measured latency-metric methods in
// registration order (the "-sim" ground truths).
func LatencyMeasured() []Method {
	regMu.RLock()
	defer regMu.RUnlock()
	var out []Method
	for _, m := range registry {
		if m.Kind() == Measured && m.Metric() != MetricDisparity {
			out = append(out, m)
		}
	}
	return out
}

// CoreMethod maps a registered bound method's display name back to
// the core.Method selector it evaluates with, for callers that bypass
// the Result shape — e.g. the CLI's streaming per-pair listing, which
// drives core.ForEachPairBound directly once the pair count exceeds
// what it is willing to materialize. ok is false for methods that are
// not plain Theorem-1/2 bounds (optimizing or measured ones).
func CoreMethod(name string) (m core.Method, ok bool) {
	switch name {
	case core.PDiff.String():
		return core.PDiff, true
	case core.SDiff.String():
		return core.SDiff, true
	default:
		return 0, false
	}
}

// ByName looks a method up by display name.
func ByName(name string) (Method, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	for _, m := range registry {
		if m.Name() == name {
			return m, true
		}
	}
	return nil, false
}

// Names maps methods to their display names, in order — the standard
// way to derive a sweep table's column list from the registry.
func Names(ms ...Method) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name()
	}
	return out
}

type pdiffMethod struct{}

func (pdiffMethod) Name() string     { return core.PDiff.String() }
func (pdiffMethod) Ref() string      { return "Theorem 1" }
func (pdiffMethod) Kind() Kind       { return Analytic }
func (pdiffMethod) Optimizing() bool { return false }
func (pdiffMethod) Metric() Metric   { return MetricDisparity }

func (pdiffMethod) Eval(_ context.Context, ec *Context, _ *model.Graph, task model.TaskID) (Result, error) {
	td, err := analyticDisparity(ec, task, core.PDiff)
	if err != nil {
		return Result{}, err
	}
	return Result{Bound: td.Bound, Detail: td, Truncated: td.Truncated, Cause: td.Cause}, nil
}

type sdiffMethod struct{}

func (sdiffMethod) Name() string     { return core.SDiff.String() }
func (sdiffMethod) Ref() string      { return "Theorem 2" }
func (sdiffMethod) Kind() Kind       { return Analytic }
func (sdiffMethod) Optimizing() bool { return false }
func (sdiffMethod) Metric() Metric   { return MetricDisparity }

func (sdiffMethod) Eval(_ context.Context, ec *Context, _ *model.Graph, task model.TaskID) (Result, error) {
	td, err := analyticDisparity(ec, task, core.SDiff)
	if err != nil {
		return Result{}, err
	}
	return Result{Bound: td.Bound, Detail: td, Truncated: td.Truncated, Cause: td.Cause}, nil
}

// analyticDisparity routes a bound evaluation to the full-detail or
// bound-only engine per Context.FullDetail. Both return the same Bound,
// argmax pair, and Truncated flag.
func analyticDisparity(ec *Context, task model.TaskID, m core.Method) (*core.TaskDisparity, error) {
	if ec.FullDetail {
		return ec.Analysis.Disparity(task, m, ec.MaxChains)
	}
	return ec.Analysis.DisparityBound(task, m, ec.MaxChains)
}

type sdiffBMethod struct{}

func (sdiffBMethod) Name() string     { return core.SDiff.String() + "-B" }
func (sdiffBMethod) Ref() string      { return "Algorithm 1" }
func (sdiffBMethod) Kind() Kind       { return Analytic }
func (sdiffBMethod) Optimizing() bool { return true }
func (sdiffBMethod) Metric() Metric   { return MetricDisparity }

func (sdiffBMethod) Eval(_ context.Context, ec *Context, _ *model.Graph, task model.TaskID) (Result, error) {
	greedy, err := ec.Analysis.OptimizeTaskGreedy(task, ec.MaxChains, ec.GreedyRounds)
	if err != nil {
		return Result{}, err
	}
	return Result{Bound: greedy.After, Greedy: greedy, Truncated: greedy.Truncated, Cause: greedy.Cause}, nil
}

// Simulation throughput metrics. The names predate this package (the
// sweeps always exported them); the global registry's get-or-create
// semantics keep every consumer — telemetry job counters, manifest
// stage breakdowns — on the same instances.
var (
	simJobs = metrics.C("exp.sim.jobs")
	// simRunHist times each individual engine run (Context.Runs of them
	// per evaluation).
	simRunHist = metrics.H("exp.sim.run")
)

type simMethod struct{}

func (simMethod) Name() string     { return "Sim" }
func (simMethod) Ref() string      { return "" }
func (simMethod) Kind() Kind       { return Measured }
func (simMethod) Optimizing() bool { return false }
func (simMethod) Metric() Metric   { return MetricDisparity }

// Eval runs ec.Runs simulations with fresh random offsets and returns
// the maximum observed disparity of the task. One sim.Engine is built
// per graph and reused across the offset runs — the engine re-reads
// offsets and resets its pools per Run, so the per-graph setup (channel
// topology, origin indexing) and the pools' steady-state populations
// are amortized over a whole sweep. A simulator validation failure is a
// programming error upstream; it is returned (not swallowed) so callers
// abort loudly instead of skewing results silently.
func (simMethod) Eval(ctx context.Context, ec *Context, g *model.Graph, task model.TaskID) (Result, error) {
	batch, err := sim.NewBatch(g, sim.Config{
		Horizon:          ec.Horizon,
		Exec:             ec.Exec,
		Trace:            ec.Track,
		DisableJumpAhead: ec.DisableJumpAhead,
	})
	if err != nil {
		return Result{}, fmt.Errorf("methods: simulation of task %s's graph failed: %w", g.Task(task).Name, err)
	}
	var worst timeu.Time
	for run := 0; run < ec.Runs; run++ {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		// Offsets stay on the graph (not in BatchRun.Offsets) on
		// purpose: the adversarial-offset ablation seeds its search from
		// the graph's post-sweep offsets, a dependency the sweep goldens
		// pin down.
		waters.RandomOffsets(g, ec.RNG)
		obs := sim.NewDisparityObserver(ec.Warmup, task)
		stopRun := simRunHist.Start()
		res, err := batch.Run(sim.BatchRun{
			Seed:      ec.RNG.Int63(),
			Observers: []sim.Observer{obs},
		})
		stopRun()
		if err != nil {
			return Result{}, fmt.Errorf("methods: simulation of task %s's graph failed: %w", g.Task(task).Name, err)
		}
		simJobs.Add(res.Stats.Jobs)
		// Surface the jump-ahead outcome per run: sweeps that stay on
		// the slow path used to do so invisibly (e.g. ExtremesExec is
		// jump-ineligible); -metrics now shows the exact reason.
		if res.Jump.Engaged {
			metrics.C("exp.sim.jump.engaged").Inc()
		} else {
			metrics.C("exp.sim.jump.fallback." + res.Jump.Code()).Inc()
		}
		worst = timeu.Max(worst, obs.Max(task))
	}
	return Result{Bound: worst}, nil
}
