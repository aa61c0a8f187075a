// Package sched provides fixed-priority response-time analysis for the
// per-ECU schedulers of the cause-effect graph model.
//
// The paper schedules the tasks of each ECU with a non-preemptive
// fixed-priority (NP-FP) policy and assumes every task is schedulable
// (R(τ) ≤ T(τ)). The worst-case response times R(τ) computed here feed the
// backward-time bounds of Lemmas 4 and 5. The NP-FP analysis is the
// classical sufficient test (in the style of von der Brüggen et al., RTS
// 2015, the paper's reference [13]): the start time of a job is delayed by
// at most one lower-priority blocking job plus higher-priority
// interference, after which the job runs to completion without preemption.
package sched

import (
	"fmt"
	"slices"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/timeu"
)

var (
	analysesRun = metrics.C("sched.analyses")
	fpIters     = metrics.C("sched.fixedpoint.iterations")
)

// Policy selects the response-time analysis variant.
type Policy int

const (
	// NonPreemptiveFP is the paper's scheduler: once a job starts it runs
	// to completion; among ready jobs the highest priority starts first.
	NonPreemptiveFP Policy = iota
	// PreemptiveFP is classical preemptive fixed priority, provided for
	// baseline comparisons.
	PreemptiveFP
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case NonPreemptiveFP:
		return "np-fp"
	case PreemptiveFP:
		return "p-fp"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Result holds the outcome of a response-time analysis over a whole graph.
type Result struct {
	// WCRT maps every task to an upper bound on its worst-case response
	// time. Unscheduled source tasks get 0.
	WCRT []timeu.Time
	// Schedulable reports R(τ) ≤ D(τ) for every task (D = the effective
	// deadline: the task's constrained deadline or its period).
	Schedulable bool
	// Unschedulable lists the tasks violating R(τ) ≤ D(τ).
	Unschedulable []model.TaskID
}

// R returns the WCRT bound for one task.
func (r *Result) R(id model.TaskID) timeu.Time { return r.WCRT[id] }

// maxIterations caps the response-time fixed-point iteration; the analysis
// declares a task unschedulable rather than looping forever on divergent
// (overloaded) inputs.
const maxIterations = 1 << 16

// Analyze computes WCRT bounds for every task of the graph under the given
// policy. Tasks with ECU = model.NoECU (external stimuli) get R = 0.
//
// An unschedulable task does not abort the analysis: its WCRT is set to
// the divergent fixed-point value (capped) and listed in
// Result.Unschedulable, so callers can report all violations at once.
//
// Each ECU's tasks are sorted once by (Prio, ID). A task's
// higher-priority set hp is then the prefix of that order before its
// priority level, and its blocking set lp is every other task at the same
// or a lower priority (equal priorities block each other and never
// interfere), so max_{j ∈ lp} W_j is a suffix maximum combined with the
// running maximum of the task's own level.
func Analyze(g *model.Graph, policy Policy) *Result {
	analysesRun.Inc()
	res := &Result{
		WCRT:        make([]timeu.Time, g.NumTasks()),
		Schedulable: true,
	}
	var dem []demand     // one ECU's tasks in priority order
	var suf []timeu.Time // suf[k] = max WCET of dem[k:]
	for _, ids := range g.TasksByECU() {
		g.SortByPriority(ids)
		dem = dem[:0]
		for _, id := range ids {
			dem = append(dem, demandOf(g.Task(id)))
		}
		suf = append(suf[:0], make([]timeu.Time, len(ids)+1)...)
		for k := len(ids) - 1; k >= 0; k-- {
			suf[k] = max(dem[k].wcet, suf[k+1])
		}
		level := 0              // index of the first task at the current priority
		var levelMax timeu.Time // max WCET of ids[level:k]
		for k, id := range ids {
			task := g.Task(id)
			if k > 0 && task.Prio != g.Task(ids[k-1]).Prio {
				level, levelMax = k, 0
			}
			hp := dem[:level]
			var r timeu.Time
			var ok bool
			switch policy {
			case NonPreemptiveFP:
				r, ok = npResponseTime(task, hp, max(suf[k+1], levelMax))
			case PreemptiveFP:
				r, ok = pResponseTime(task, hp)
			default:
				panic(fmt.Sprintf("sched: unknown policy %d", policy))
			}
			levelMax = max(levelMax, task.WCET)
			res.WCRT[id] = r
			if !ok || r > task.EffectiveDeadline() {
				res.Schedulable = false
				res.Unschedulable = append(res.Unschedulable, id)
			}
		}
	}
	slices.Sort(res.Unschedulable)
	return res
}

// demand is the part of an interfering task the response-time
// recurrences read.
type demand struct{ wcet, period timeu.Time }

func demandOf(t *model.Task) demand { return demand{t.WCET, t.Period} }

// npResponseTime bounds the WCRT of a task under non-preemptive fixed
// priority with the multi-job busy-period analysis of Davis, Burns, Bril
// and Lukkien (RTS 2007), given its higher-priority tasks hp and its
// blocking term blk = max_{j ∈ lp} W_j. Under non-preemption the first
// job after the critical instant is NOT necessarily the worst (the
// "refuted" part of that paper's title), so every instance q in the
// level-i busy period is examined:
//
//	L      = smallest t > 0 with t = blk + Σ_{j ∈ hp ∪ {i}} ⌈t/T_j⌉·W_j
//	w(q)   = smallest w with w = blk + q·W_i + Σ_{j ∈ hp} (⌊w/T_j⌋+1)·W_j
//	R      = max over q = 0..⌈L/T_i⌉−1 of w(q) − q·T_i + W_i
func npResponseTime(task *model.Task, hp []demand, blk timeu.Time) (timeu.Time, bool) {
	// Level-i busy period length.
	busy := blk + task.WCET
	for _, o := range hp {
		busy += o.wcet
	}
	if busy <= 0 {
		// Nothing competes and the task itself is instantaneous.
		return task.WCET, true
	}
	for iter := 0; ; iter++ {
		next := blk + timeu.Time(timeu.CeilDiv(busy, task.Period))*task.WCET
		for _, o := range hp {
			next += timeu.Time(timeu.CeilDiv(busy, o.period)) * o.wcet
		}
		if next == busy {
			break
		}
		busy = next
		// A busy period beyond 2^20 periods means overload; the q = 0
		// analysis below will exceed the period and flag it. Dividing
		// instead of multiplying 2^20·T keeps the test exact for every
		// period (the product wraps above T ≈ 2.4 h).
		if iter >= maxIterations || (busy-1)/task.Period >= 1<<20 {
			break
		}
	}
	q := int64(timeu.CeilDiv(busy, task.Period))
	if q < 1 {
		q = 1
	}

	var worst timeu.Time
	ok := true
	iters := int64(0)
	defer func() { fpIters.Add(iters) }()
	for k := int64(0); k < q; k++ {
		w := blk + timeu.Time(k)*task.WCET
		for _, o := range hp {
			w += o.wcet
		}
		converged := false
		for iter := 0; iter < maxIterations; iter++ {
			iters++
			next := blk + timeu.Time(k)*task.WCET
			for _, o := range hp {
				next += timeu.Time(timeu.FloorDiv(w, o.period)+1) * o.wcet
			}
			if next == w {
				converged = true
				break
			}
			w = next
			if w-timeu.Time(k)*task.Period > task.Period {
				// This instance already misses its deadline.
				break
			}
		}
		r := w - timeu.Time(k)*task.Period + task.WCET
		worst = timeu.Max(worst, r)
		if !converged {
			ok = false
			break
		}
	}
	return worst, ok
}

// pResponseTime bounds the WCRT under preemptive fixed priority using the
// classical r = W_i + Σ_{j ∈ hp} ⌈r/T_j⌉·W_j recurrence.
func pResponseTime(task *model.Task, hp []demand) (timeu.Time, bool) {
	r := task.WCET
	for iter := 0; iter < maxIterations; iter++ {
		fpIters.Inc()
		next := task.WCET
		for _, o := range hp {
			next += timeu.Time(timeu.CeilDiv(r, o.period)) * o.wcet
		}
		if next == r {
			return r, true
		}
		if next > task.Period {
			return next, false
		}
		r = next
	}
	return r, false
}

// Utilization returns the total WCET utilization of the tasks mapped to
// each ECU, indexed by ECU ID, in one pass over the tasks.
func Utilization(g *model.Graph) []float64 {
	u := make([]float64, g.NumECUs())
	for i := 0; i < g.NumTasks(); i++ {
		t := g.Task(model.TaskID(i))
		if t.ECU >= 0 && int(t.ECU) < len(u) {
			u[t.ECU] += float64(t.WCET) / float64(t.Period)
		}
	}
	return u
}

// TotalUtilization returns the WCET utilization summed over all ECUs.
func TotalUtilization(g *model.Graph) float64 {
	var u float64
	for i := 0; i < g.NumTasks(); i++ {
		t := g.Task(model.TaskID(i))
		if t.ECU == model.NoECU {
			continue
		}
		u += float64(t.WCET) / float64(t.Period)
	}
	return u
}
