// Package disparity analyzes and optimizes the worst-case time disparity
// of tasks in cause-effect chains, reproducing "Analysis and Optimization
// of Worst-Case Time Disparity in Cause-Effect Chains" (DATE 2023).
//
// Time disparity is the maximum difference among the timestamps of the
// raw sensor data that one output of a fusion task originates from — the
// quantity that must stay below a threshold for sensor fusion (camera +
// LiDAR, etc.) to be meaningful. This package provides:
//
//   - a cause-effect graph model (periodic tasks on ECUs, bounded
//     channels, implicit communication, non-preemptive fixed-priority
//     scheduling);
//   - worst-/best-case backward-time bounds per chain (Lemmas 4/5);
//   - the pairwise and task-level disparity bounds P-diff (Theorem 1) and
//     S-diff (Theorem 2);
//   - the buffer-sizing optimization of Algorithm 1 with its Theorem-3
//     bound (S-diff-B);
//   - a discrete-event simulator measuring achieved disparities and
//     backward times;
//   - WATERS-2015 workload generation and the paper's full Fig. 6
//     experiment harness.
//
// # Quick start
//
//	g := disparity.NewGraph()
//	ecu := g.AddECU("ecu0", disparity.Compute)
//	cam := g.AddTask(disparity.Task{Name: "camera", Period: 10 * disparity.Millisecond, ECU: disparity.NoECU})
//	... add tasks and edges ...
//	a, err := disparity.Analyze(g)
//	td, err := a.Disparity(fusionTask, disparity.SDiff, 0)
//	fmt.Println(td.Bound)
//
// See examples/ for complete programs.
package disparity

import (
	"io"

	"repro/internal/backward"
	"repro/internal/can"
	"repro/internal/chains"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/timeu"
)

// Time is a point or span on the integer nanosecond timeline.
type Time = timeu.Time

// Convenient time spans.
const (
	Nanosecond  = timeu.Nanosecond
	Microsecond = timeu.Microsecond
	Millisecond = timeu.Millisecond
	Second      = timeu.Second
	Minute      = timeu.Minute
)

// ParseTime parses "5ms", "4.75us", etc.
func ParseTime(s string) (Time, error) { return timeu.Parse(s) }

// Graph is a cause-effect graph: tasks, channels, ECUs.
type Graph = model.Graph

// Task is one vertex: (WCET, BCET, Period) plus priority and ECU mapping.
type Task = model.Task

// TaskID identifies a task within a graph.
type TaskID = model.TaskID

// ECUID identifies a processing unit.
type ECUID = model.ECUID

// ECUKind distinguishes compute ECUs from buses.
type ECUKind = model.ECUKind

// Edge is a channel between two tasks with a buffer capacity.
type Edge = model.Edge

// Chain is a path through the graph, head (source) to tail.
type Chain = model.Chain

// ECU kinds and the unscheduled-stimulus marker.
const (
	Compute = model.Compute
	Bus     = model.Bus
	NoECU   = model.NoECU
)

// Semantics selects a task's communication timing: Implicit (the paper's
// read-at-start / write-at-finish) or LET (read at release, publish at
// deadline — deterministic data flow).
type Semantics = model.Semantics

// The two supported communication semantics.
const (
	Implicit = model.Implicit
	LET      = model.LET
)

// NewGraph returns an empty cause-effect graph.
func NewGraph() *Graph { return model.NewGraph() }

// CANBus describes a CAN bus (bit rate, identifier format, payload) for
// rewriting cross-ECU edges into periodic frame tasks with realistic
// transmission times (Davis et al.'s worst-case frame length).
type CANBus = can.Bus

// CAN bit rates and frame formats for CANBus.
const (
	Baud125k    = can.Baud125k
	Baud250k    = can.Baud250k
	Baud500k    = can.Baud500k
	Baud1M      = can.Baud1M
	CANStandard = can.Standard
	CANExtended = can.Extended
)

// ReadGraph deserializes a graph from JSON (see Graph.WriteJSON).
func ReadGraph(r io.Reader) (*Graph, error) { return model.ReadJSON(r) }

// Method selects the pairwise disparity bound: PDiff (Theorem 1, chains
// independent) or SDiff (Theorem 2, fork-join aware).
type Method = core.Method

// The two analysis methods of the paper.
const (
	PDiff = core.PDiff
	SDiff = core.SDiff
)

// Analysis bounds time disparities on one graph.
type Analysis = core.Analysis

// PairBound is the disparity bound of one chain pair with its
// intermediate quantities (sampling windows, alignment coefficients).
type PairBound = core.PairBound

// TaskDisparity is the task-level worst-case disparity bound with the
// per-pair breakdown.
type TaskDisparity = core.TaskDisparity

// BufferPlan is Algorithm 1's buffer-sizing decision and the Theorem-3
// bound it achieves.
type BufferPlan = core.BufferPlan

// GreedyResult is the outcome of the multi-round buffer optimization
// (Analysis.OptimizeTaskGreedy), an extension of the paper's single-pair
// Algorithm 1.
type GreedyResult = core.GreedyResult

// Window is a sampling window: the time range, relative to the analyzed
// job's release, within which a source's timestamp lies.
type Window = backward.Window

// Analyze prepares the disparity analysis of the paper for the graph:
// WCRT analysis under non-preemptive fixed priority, then the Lemma-4/5
// backward-time bounds. It fails if the graph is invalid or not
// schedulable.
func Analyze(g *Graph) (*Analysis, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return core.New(g)
}

// AnalysisCache is an empty placeholder kept for source compatibility.
//
// Deprecated: the analysis no longer memoizes across calls; every
// Analysis computes its WCRT once and shares its chain tables itself.
// Use Analyze.
type AnalysisCache struct{}

// NewAnalysisCache returns an empty placeholder.
//
// Deprecated: use Analyze.
func NewAnalysisCache() *AnalysisCache { return &AnalysisCache{} }

// AnalyzeWithCache returns Analyze(g); the cache argument is ignored.
//
// Deprecated: use Analyze.
func AnalyzeWithCache(g *Graph, _ *AnalysisCache) (*Analysis, error) {
	return Analyze(g)
}

// EnumerateChains lists every chain from a source task of g to the given
// task — the set 𝒫 of the paper. maxChains ≤ 0 applies a safe default cap.
func EnumerateChains(g *Graph, task TaskID, maxChains int) ([]Chain, error) {
	return chains.Enumerate(g, task, maxChains)
}

// WCRT returns upper bounds on the worst-case response times of all tasks
// under non-preemptive fixed-priority scheduling, and whether every task
// meets R(τ) ≤ T(τ).
func WCRT(g *Graph) (bounds []Time, schedulable bool) {
	res := sched.Analyze(g, sched.NonPreemptiveFP)
	return res.WCRT, res.Schedulable
}

// AssignRateMonotonic assigns per-ECU rate-monotonic priorities.
func AssignRateMonotonic(g *Graph) { sched.AssignRateMonotonic(g) }

// AssignTopological assigns per-ECU priorities along the data flow
// (producers above consumers), which puts every same-ECU chain hop into
// Lemma 4's cheap θ = T case and tightens the disparity bounds; re-check
// schedulability afterwards.
func AssignTopological(g *Graph) error { return sched.AssignTopological(g) }

// ThresholdReport answers the paper's verification question for one
// task: does its worst-case time disparity stay within the threshold the
// fusion algorithm tolerates?
type ThresholdReport = core.ThresholdReport

// BackwardBounds returns [𝒲(π), ℬ(π)]: the worst-case backward time upper
// bound (Lemma 4) and best-case backward time lower bound (Lemma 5) of a
// chain, honoring channel buffer capacities (Lemma 6).
func BackwardBounds(g *Graph, pi Chain) (wcbt, bcbt Time, err error) {
	an, err := backwardAnalyzer(g, pi)
	if err != nil {
		return 0, 0, err
	}
	return an.WCBT(pi), an.BCBT(pi), nil
}

// EndToEnd holds the classical end-to-end latency bounds of one chain,
// provided alongside the disparity analysis for completeness: the paper
// contrasts time disparity with these established metrics (§I).
type EndToEnd struct {
	// MaxDataAge bounds how stale the source data behind an output can
	// be (backward time plus the tail's response time, footnote 2 of the
	// paper); MinDataAge is the corresponding lower bound.
	MaxDataAge, MinDataAge Time
	// MaxReaction bounds the span from a stimulus to the finish of the
	// first output reflecting it.
	MaxReaction Time
	// Davare is the classical scheduler-agnostic Σ(T+R) bound that both
	// MaxDataAge and MaxReaction refine.
	Davare Time
}

// EndToEndBounds computes the end-to-end latency bounds of a chain under
// non-preemptive fixed-priority scheduling.
func EndToEndBounds(g *Graph, pi Chain) (*EndToEnd, error) {
	an, err := backwardAnalyzer(g, pi)
	if err != nil {
		return nil, err
	}
	return &EndToEnd{
		MaxDataAge:  an.DataAge(pi),
		MinDataAge:  an.MinDataAge(pi),
		MaxReaction: an.Reaction(pi),
		Davare:      an.DavareBound(pi),
	}, nil
}

func backwardAnalyzer(g *Graph, pi Chain) (*backward.Analyzer, error) {
	if err := pi.ValidIn(g); err != nil {
		return nil, err
	}
	res := sched.Analyze(g, sched.NonPreemptiveFP)
	return backward.NewAnalyzer(g, res, backward.NonPreemptive), nil
}
