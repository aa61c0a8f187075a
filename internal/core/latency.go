// Task-level end-to-end latency analysis.
//
// The latency metric family (backward.Latency: MRT, MRRT, MDA, MRDA)
// maximizes a per-chain bound over every complete chain ending at the
// analyzed task. Like the disparity fast path, the chain set is the
// prefix trie of chains.Index and every per-chain value is a difference
// or prefix sum of per-node tables: the age-side metrics reuse the
// backward-bound prefix sums already built for the disparity analysis
// (pairEval/TrieBounds), and the reaction-side metrics add one more
// per-node prefix (latSums). LatencyReference keeps the legacy
// enumerate-and-sum pipeline alive as the executable specification; the
// differential harness in internal/integration pins the two together
// and against the simulator's LatencyObserver.
package core

import (
	"repro/internal/backward"
	"repro/internal/chains"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/timeu"
)

var (
	latencyTruncated = metrics.C("core.latency.truncated")
	chainsLatBounded = metrics.C("core.latency.chains")
)

// SourceLatency is one per-source slice of a task-level latency result:
// the maximum of the metric over the chains originating at Source.
type SourceLatency struct {
	Source model.TaskID
	Bound  timeu.Time
}

// TaskLatency is the task-level result of one latency metric: the
// maximum of the per-chain bound over all complete chains ending at the
// task.
type TaskLatency struct {
	Task   model.TaskID
	Metric backward.Latency
	// Bound is the metric bound: max over chains.
	Bound timeu.Time
	// ArgMax is the first chain attaining Bound (nil when the task has
	// no chains, which cannot happen for a valid task: the singleton
	// chain always exists).
	ArgMax model.Chain
	// NumChains is the number of chains evaluated.
	NumChains int
	// PerSource lists, per distinct source task in ascending ID order,
	// the maximum bound among that source's chains.
	PerSource []SourceLatency
	// Truncated reports that the chain enumeration hit the cap, making
	// every number here a lower bound on the true maximum — callers must
	// not present Truncated results as sound upper bounds.
	Truncated bool
}

// Source returns the per-source bound for one source task.
func (tl *TaskLatency) Source(src model.TaskID) (timeu.Time, bool) {
	for _, s := range tl.PerSource {
		if s.Source == src {
			return s.Bound, true
		}
	}
	return 0, false
}

// Latency bounds metric m over every complete chain ending at the task,
// using the shared trie tables.
// maxChains ≤ 0 means chains.DefaultMaxChains; past the cap the
// enumeration truncates with the Truncated flag set rather than failing.
func (a *Analysis) Latency(task model.TaskID, m backward.Latency, maxChains int) (*TaskLatency, error) {
	return a.latencyFast(task, m, maxChains), nil
}

// latSums is the per-node reaction prefix of one trie: rsum[u] is the
// reaction contribution of the path from u (exclusive) to the root
// (inclusive) — Σ (MaxInterArrival + OutputDelay) over the ancestor
// tasks plus the Lemma-6 shift of every hop — so that the MRRT of the
// chain with head node u is OutputDelay(task(u)) + rsum[u]. Built once
// per pairEval and shared by all four metrics.
type latSums struct {
	rsum []timeu.Time
	// delay and tmax are indexed by TaskID.
	delay, tmax []timeu.Time
}

func (ev *pairEval) latency() *latSums {
	ev.latOnce.Do(func() {
		a, idx := ev.a, ev.idx
		nt := a.g.NumTasks()
		ls := &latSums{
			rsum:  make([]timeu.Time, idx.NumNodes()),
			delay: make([]timeu.Time, nt),
			tmax:  make([]timeu.Time, nt),
		}
		for t := 0; t < nt; t++ {
			id := model.TaskID(t)
			ls.delay[t] = a.bw.OutputDelay(id)
			ls.tmax[t] = a.g.Task(id).MaxInterArrival()
		}
		// Nodes are created parent-before-child, so one forward pass
		// accumulates the root→node prefixes.
		for u := int32(1); u < int32(idx.NumNodes()); u++ {
			p := idx.NodeParent(u)
			pt := idx.NodeTask(p)
			ls.rsum[u] = ls.rsum[p] + ls.tmax[pt] + ls.delay[pt] +
				a.bw.BufferShiftHi(idx.NodeTask(u), pt)
		}
		ev.lat = ls
	})
	return ev.lat
}

// chainValue evaluates metric m for chain i on the shared tables. The
// arithmetic is the same exact int64 sums as backward.ChainLatency on
// the materialized chain, so fast path and reference are bit-identical.
func (ev *pairEval) chainValue(ls *latSums, m backward.Latency, i int) timeu.Time {
	root := ev.idx.NodeTask(0)
	switch m {
	case backward.LatencyMRDA:
		return ev.wFull[i] + ls.delay[root]
	case backward.LatencyMDA:
		return ev.wFull[i] + ls.delay[root] + ls.tmax[root]
	case backward.LatencyMRRT:
		head := ev.headTask[i]
		return ls.delay[head] + ls.rsum[ev.idx.Leaf(i)]
	case backward.LatencyMRT:
		head := ev.headTask[i]
		return ls.delay[head] + ls.rsum[ev.idx.Leaf(i)] + ls.tmax[head]
	default:
		panic("core: unknown latency metric")
	}
}

func (a *Analysis) latencyFast(task model.TaskID, m backward.Latency, maxChains int) *TaskLatency {
	ev := a.pairEvalFor(task, maxChains)
	ls := ev.latency()
	n := ev.idx.NumChains()
	tl := &TaskLatency{Task: task, Metric: m, NumChains: n, Truncated: ev.idx.Truncated()}
	if tl.Truncated {
		latencyTruncated.Inc()
	}
	chainsLatBounded.Add(int64(n))
	perSrc := make([]timeu.Time, a.g.NumTasks())
	seenSrc := make([]bool, a.g.NumTasks())
	arg := -1
	for i := 0; i < n; i++ {
		v := ev.chainValue(ls, m, i)
		if v > tl.Bound || arg < 0 {
			tl.Bound, arg = v, i
		}
		h := ev.headTask[i]
		if !seenSrc[h] || v > perSrc[h] {
			perSrc[h], seenSrc[h] = v, true
		}
	}
	if arg >= 0 {
		tl.ArgMax = ev.idx.Chain(arg)
	}
	for t, ok := range seenSrc {
		if ok {
			tl.PerSource = append(tl.PerSource, SourceLatency{Source: model.TaskID(t), Bound: perSrc[t]})
		}
	}
	return tl
}

// LatencyReference is the legacy pipeline: enumerate every chain and sum
// backward.ChainLatency per chain. It exists as the executable
// specification the trie path is tested against; unlike Latency it
// fails with chains.ErrTooManyChains when the enumeration exceeds
// maxChains.
func (a *Analysis) LatencyReference(task model.TaskID, m backward.Latency, maxChains int) (*TaskLatency, error) {
	ps, err := chains.Enumerate(a.g, task, maxChains)
	if err != nil {
		return nil, err
	}
	tl := &TaskLatency{Task: task, Metric: m, NumChains: len(ps)}
	perSrc := make([]timeu.Time, a.g.NumTasks())
	seenSrc := make([]bool, a.g.NumTasks())
	arg := -1
	for i, pi := range ps {
		v := a.bw.ChainLatency(m, pi)
		if v > tl.Bound || arg < 0 {
			tl.Bound, arg = v, i
		}
		h := pi.Head()
		if !seenSrc[h] || v > perSrc[h] {
			perSrc[h], seenSrc[h] = v, true
		}
	}
	if arg >= 0 {
		tl.ArgMax = ps[arg]
	}
	for t, ok := range seenSrc {
		if ok {
			tl.PerSource = append(tl.PerSource, SourceLatency{Source: model.TaskID(t), Bound: perSrc[t]})
		}
	}
	return tl, nil
}
