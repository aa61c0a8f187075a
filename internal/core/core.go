// Package core implements the paper's contribution: bounds on the
// worst-case time disparity of a task in a cause-effect graph, and the
// buffer-sizing optimization that reduces it.
//
// The time disparity of a job J (Definition 2) is the maximum difference
// among the timestamps of all sources J's output originates from. With 𝒫
// the set of chains from source tasks to the analyzed task,
//
//	Δ(J) = max over pairs λ ≠ ν ∈ 𝒫 of |t(⃖λ¹) − t(⃖ν¹)|,
//
// and the package bounds each pairwise term in two ways:
//
//   - PDiff (Theorem 1) treats λ and ν as independent and combines their
//     sampling windows [−𝒲, −ℬ] directly;
//   - SDiff (Theorem 2) decomposes the pair at its common tasks o_1 … o_c
//     and propagates the release-time alignment of the shared jobs through
//     the recursion for x_j, y_j, which is tighter whenever the chains
//     fork and join.
//
// Algorithm 1 (Optimize) sizes the input buffer of one chain's second task
// so that the two sampling windows overlap as much as possible; Theorem 3
// (SDiffBuffered) quantifies the resulting reduction L.
package core

import (
	"fmt"
	"sync"

	"repro/internal/backward"
	"repro/internal/chains"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/timeu"
)

// pairsBounded counts pair bounds evaluated in full, by the reference
// pipeline (per pair) and the trie fast path (per block or pair loop)
// alike.
var pairsBounded = metrics.C("core.pairs.bounded")

// Registered but never incremented: the repository benchmark's layer
// probe (bench/layers.go) reads these ten names and fails on an absent
// one. Delete this block together with that probe's
// core.cache_hit_ratio.* values.
var (
	_ = metrics.C("cache.sched.hits")
	_ = metrics.C("cache.sched.misses")
	_ = metrics.C("cache.backward.hits")
	_ = metrics.C("cache.backward.misses")
	_ = metrics.C("cache.enum.hits")
	_ = metrics.C("cache.enum.misses")
	_ = metrics.C("cache.pair.hits")
	_ = metrics.C("cache.pair.misses")
	_ = metrics.C("cache.task.hits")
	_ = metrics.C("cache.task.misses")
)

// Method selects the pairwise disparity bound.
type Method int

const (
	// PDiff is Theorem 1 (chains treated as independent).
	PDiff Method = iota
	// SDiff is Theorem 2 (fork-join structure exploited).
	SDiff
)

// String names the method as in the paper's evaluation.
func (m Method) String() string {
	switch m {
	case PDiff:
		return "P-diff"
	case SDiff:
		return "S-diff"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Ref names the paper's theorem behind the method.
func (m Method) Ref() string {
	switch m {
	case PDiff:
		return "Theorem 1"
	case SDiff:
		return "Theorem 2"
	default:
		return ""
	}
}

// Analysis bounds time disparities on one graph. Construct with New;
// the zero value is not usable.
type Analysis struct {
	g  *model.Graph
	bw *backward.Analyzer
	// evals interns the trie-based pair evaluation tables per (task,
	// cap) — see fastpath.go. They live on the Analysis because they
	// embed its backward analyzer, which can differ between Analyses
	// sharing one graph (Dürr ablations).
	evmu  sync.Mutex
	evals map[evalKey]*pairEval
}

// New builds an Analysis for the graph using the paper's non-preemptive
// backward-time bounds (Lemmas 4 and 5), or their LET counterparts when
// the graph's scheduled tasks all use LET. The graph must be schedulable
// under non-preemptive fixed priority; an unschedulable graph yields an
// error because the WCRT bounds that Lemmas 4 and 5 consume would be
// meaningless. Graphs mixing LET and implicit scheduled tasks are
// rejected: the closed-form backward bounds do not compose across a
// mixed chain.
func New(g *model.Graph) (*Analysis, error) {
	seen := false
	var sem model.Semantics
	for i := 0; i < g.NumTasks(); i++ {
		t := g.Task(model.TaskID(i))
		if t.ECU == model.NoECU {
			continue
		}
		if !seen {
			sem, seen = t.Sem, true
		} else if t.Sem != sem {
			return nil, fmt.Errorf("core: graph mixes %v and %v tasks; the analysis needs uniform semantics", sem, t.Sem)
		}
	}
	res := sched.Analyze(g, sched.NonPreemptiveFP)
	if !res.Schedulable {
		names := make([]string, len(res.Unschedulable))
		for i, id := range res.Unschedulable {
			names[i] = g.Task(id).Name
		}
		return nil, fmt.Errorf("core: graph is not schedulable under NP-FP: %v", names)
	}
	return newAnalysis(g, res), nil
}

// newAnalysis builds the NP-FP Analysis of g on an already computed,
// schedulable WCRT result. New feeds it a fresh fixed point; the greedy
// optimizer feeds it the parent's, because buffer capacities never
// enter the response-time analysis.
func newAnalysis(g *model.Graph, res *sched.Result) *Analysis {
	return &Analysis{g: g, bw: backward.NewAnalyzer(g, res, backward.NonPreemptive)}
}

// NewWithBackward builds an Analysis on a caller-supplied backward-time
// analyzer (e.g. the Dürr baseline for ablations).
func NewWithBackward(g *model.Graph, bw *backward.Analyzer) *Analysis {
	return &Analysis{g: g, bw: bw}
}

// Backward exposes the underlying backward-time analyzer.
func (a *Analysis) Backward() *backward.Analyzer { return a.bw }

// PairBound reports the bound for one chain pair together with the
// intermediate quantities, for inspection and for Algorithm 1.
type PairBound struct {
	// Lambda and Nu are the analyzed chains (after any suffix stripping
	// done by the caller).
	Lambda, Nu model.Chain
	// Bound is the pairwise disparity bound |t(⃖λ¹) − t(⃖ν¹)| ≤ Bound.
	Bound timeu.Time
	// SameHead records λ¹ = ν¹.
	SameHead bool
	// X1, Y1 are the Theorem-2 alignment coefficients of the first common
	// task (both zero under PDiff or when c = 1).
	X1, Y1 int64
	// WindowLambda and WindowNu are the sampling windows of the two
	// sources relative to the analyzed job's release: t(⃖λ¹) ∈
	// WindowLambda and t(⃖ν¹) ∈ WindowNu.
	WindowLambda, WindowNu backward.Window
}

// PairDisparity bounds |t(⃖λ¹) − t(⃖ν¹)| for two chains ending at the same
// task with the selected method. The chains are used as given; callers
// that want the "last joint task" tightening should strip the common
// suffix first (TaskDisparity does).
func (a *Analysis) PairDisparity(lambda, nu model.Chain, m Method) (*PairBound, error) {
	switch m {
	case PDiff:
		return a.pairTheorem1(lambda, nu)
	case SDiff:
		return a.pairTheorem2(lambda, nu)
	default:
		return nil, fmt.Errorf("core: unknown method %d", int(m))
	}
}

// pairTheorem1 implements Theorem 1.
func (a *Analysis) pairTheorem1(lambda, nu model.Chain) (*PairBound, error) {
	if err := checkPair(lambda, nu); err != nil {
		return nil, err
	}
	pairsBounded.Inc()
	wl, bl := a.bw.Bounds(lambda)
	wn, bn := a.bw.Bounds(nu)
	o := timeu.Max(timeu.Abs(wl-bn), timeu.Abs(wn-bl))
	pb := &PairBound{
		Lambda: lambda, Nu: nu,
		SameHead:     lambda.Head() == nu.Head(),
		WindowLambda: backward.Window{Lo: -wl, Hi: -bl},
		WindowNu:     backward.Window{Lo: -wn, Hi: -bn},
	}
	pb.Bound = o
	if pb.SameHead && !a.g.Task(lambda.Head()).Sporadic() {
		// The release-time difference between two jobs of the shared head
		// is a multiple of its period — only for strictly periodic heads.
		period := a.g.Task(lambda.Head()).Period
		pb.Bound = timeu.FloorTo(o, period)
	}
	return pb, nil
}

// pairTheorem2 implements Theorem 2: decompose at the common tasks,
// propagate x_j, y_j from the analyzed task backwards to o_1, then apply
// Lemma 3 to the first sub-chain pair.
func (a *Analysis) pairTheorem2(lambda, nu model.Chain) (*PairBound, error) {
	if err := checkPair(lambda, nu); err != nil {
		return nil, err
	}
	d, err := chains.Decompose(lambda, nu)
	if err != nil {
		return nil, err
	}
	// Theorem 2's alignment argument requires the common tasks' release
	// differences to be period multiples; sporadic common tasks (or a
	// sporadic shared head) void it, so fall back to Theorem 1 without
	// flooring — still sound, merely less precise.
	for _, o := range d.Common {
		if a.g.Task(o).Sporadic() {
			return a.pairTheorem1(lambda, nu)
		}
	}
	if d.SameHead && a.g.Task(lambda.Head()).Sporadic() {
		return a.pairTheorem1(lambda, nu)
	}
	pairsBounded.Inc()
	x1, y1, err := a.alignment(d)
	if err != nil {
		return nil, err
	}
	// Lemma 3 on (α₁, β₁): the job of o₁ in ⃖ν is the k-th job released
	// after the one in ⃖λ with x₁ ≤ k ≤ y₁.
	to1 := a.g.Task(d.Common[0]).Period
	wa, ba := a.bw.Bounds(d.Alpha[0])
	wb, bb := a.bw.Bounds(d.Beta[0])
	o := timeu.Max(
		timeu.Abs(wb-ba-timeu.Time(x1)*to1),
		timeu.Abs(bb-wa-timeu.Time(y1)*to1),
	)
	pb := &PairBound{
		Lambda: lambda, Nu: nu,
		SameHead: d.SameHead,
		X1:       x1, Y1: y1,
		WindowLambda: backward.Window{Lo: -wa, Hi: -ba},
		WindowNu:     backward.Window{Lo: timeu.Time(x1)*to1 - wb, Hi: timeu.Time(y1)*to1 - bb},
	}
	pb.Bound = o
	if pb.SameHead {
		period := a.g.Task(lambda.Head()).Period
		pb.Bound = timeu.FloorTo(o, period)
	}
	return pb, nil
}

// alignment runs Theorem 2's recursion, producing x₁ and y₁: the release
// of the o₁ job in ⃖ν lies in [x₁·T(o₁), y₁·T(o₁)] relative to the o₁ job
// in ⃖λ.
func (a *Analysis) alignment(d *chains.Decomposition) (x1, y1 int64, err error) {
	c := d.C()
	x, y := int64(0), int64(0) // x_c = y_c = 0
	for j := c - 1; j >= 1; j-- {
		toJ := a.g.Task(d.Common[j-1]).Period // T(o_j), 1-based o_j = Common[j-1]
		toJ1 := a.g.Task(d.Common[j]).Period  // T(o_{j+1})
		alpha, beta := d.Alpha[j], d.Beta[j]  // α_{j+1}, β_{j+1} (0-based index j)
		wa, ba := a.bw.Bounds(alpha)
		wb, bb := a.bw.Bounds(beta)
		nx := timeu.CeilDiv(ba-wb+timeu.Time(x)*toJ1, toJ)
		ny := timeu.FloorDiv(wa-bb+timeu.Time(y)*toJ1, toJ)
		x, y = nx, ny
		if x > y {
			// The windows admit no multiple of T(o_j); with sound WCBT/BCBT
			// bounds this cannot arise from a realizable run (the actual
			// release difference is always such a multiple and always lies
			// in the propagated interval).
			return 0, 0, fmt.Errorf("core: infeasible alignment x_%d=%d > y_%d=%d", j, x, j, y)
		}
	}
	return x, y, nil
}

func checkPair(lambda, nu model.Chain) error {
	if lambda.Len() == 0 || nu.Len() == 0 {
		return fmt.Errorf("core: empty chain")
	}
	if lambda.Tail() != nu.Tail() {
		return fmt.Errorf("core: chains end at different tasks")
	}
	if lambda.Equal(nu) {
		return fmt.Errorf("core: chain pair must be distinct")
	}
	return nil
}

// TaskDisparity holds the worst-case time disparity bound of one task and
// the per-pair breakdown behind it.
type TaskDisparity struct {
	Task  model.TaskID
	Bound timeu.Time
	// Pairs lists the pairwise bounds, worst first not guaranteed; the
	// entry attaining Bound is at index ArgMax (-1 when there are no
	// pairs). DisparityBound results carry only the argmax pair here.
	Pairs  []*PairBound
	ArgMax int
	// NumPairs is the number of chain pairs analyzed. It equals
	// len(Pairs) for Disparity results; DisparityBound results keep the
	// true count here while materializing only the worst pair.
	NumPairs int
	// Truncated reports that the chain enumeration hit the maxChains
	// cap: the bound covers only the first maxChains chains (in
	// enumeration order) and may understate the true disparity.
	// Consumers that must not act on a partial analysis check this flag
	// (the sweep drivers discard truncated graphs and log the count).
	Truncated bool
	// Cause names which limit truncated the enumeration (chain cap vs
	// trie node budget); NotTruncated when Truncated is false.
	Cause TruncationCause
}

// TruncationCause re-exports chains.TruncationCause so callers reading
// TaskDisparity.Cause need not import the chains package.
type TruncationCause = chains.TruncationCause

// Truncation causes, re-exported for the same reason.
const (
	NotTruncated        = chains.NotTruncated
	TruncatedChainCap   = chains.TruncatedChainCap
	TruncatedNodeBudget = chains.TruncatedNodeBudget
)

// Disparity bounds the worst-case time disparity of the task (Definition
// 2): it enumerates all chains in 𝒫 ending at the task, bounds every
// pair with the method, and maximizes. A task fed by fewer than two
// chains has disparity 0.
//
// Following the paper's evaluation, the two methods differ in how much
// shared structure they see. PDiff applies Theorem 1 to the full chains,
// treating them as completely independent — including any common suffix.
// SDiff exploits the fork-join structure: each pair is first reduced to
// its last joint task ("we can consider the last joint task of them as
// the analyzed task") and then bounded with Theorem 2's common-task
// recursion. This is what makes S-diff strictly more precise on forked
// graphs, as in Fig. 6(a).
//
// maxChains caps the enumeration (≤ 0 selects chains.DefaultMaxChains).
// Where earlier versions failed with chains.ErrTooManyChains at the
// cap, Disparity now analyzes the first maxChains chains and reports
// the partial coverage through TaskDisparity.Truncated — callers
// decide whether a partial bound is acceptable.
//
// Disparity collects ForEachPairBound's stream on the trie-based fast
// path (see fastpath.go): Pairs in row-major order, ArgMax the first
// pair attaining the maximum. Its bounds are bit-identical to the
// reference pipeline, which remains available as DisparityReference
// and is pinned to the fast path by the differential harness in
// internal/integration.
func (a *Analysis) Disparity(task model.TaskID, m Method, maxChains int) (*TaskDisparity, error) {
	pairs := make([]*PairBound, 0, chains.NumPairs(a.pairEvalFor(task, maxChains).idx.NumChains()))
	argMax := -1
	td, err := a.ForEachPairBound(task, m, maxChains, func(rank int, pb *PairBound) bool {
		p := *pb
		pairs = append(pairs, &p)
		if argMax < 0 || p.Bound > pairs[argMax].Bound {
			argMax = rank
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	td.Pairs, td.ArgMax = pairs, argMax
	return td, nil
}

// DisparityReference is the legacy per-pair pipeline: enumerate every
// chain, strip each pair's common suffix, and bound it via
// PairDisparity. It exists as the executable specification the fast
// path is tested against; unlike Disparity it fails with
// chains.ErrTooManyChains when the enumeration exceeds maxChains.
func (a *Analysis) DisparityReference(task model.TaskID, m Method, maxChains int) (*TaskDisparity, error) {
	ps, err := chains.Enumerate(a.g, task, maxChains)
	if err != nil {
		return nil, err
	}
	td := &TaskDisparity{Task: task, ArgMax: -1, NumPairs: chains.NumPairs(len(ps))}
	err = chains.ForEachPair(len(ps), func(i, j int) error {
		la, nu := ps[i], ps[j]
		if m == SDiff {
			var err error
			la, nu, err = chains.StripCommonSuffix(la, nu)
			if err != nil {
				return err
			}
		}
		pb, err := a.PairDisparity(la, nu, m)
		if err != nil {
			return err
		}
		td.Pairs = append(td.Pairs, pb)
		if pb.Bound > td.Bound || td.ArgMax < 0 {
			td.Bound = pb.Bound
			td.ArgMax = len(td.Pairs) - 1
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return td, nil
}
