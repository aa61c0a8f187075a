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
	"math"
	"math/bits"
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

// NonPreemptiveFP is the paper's scheduler: once a job starts it runs to
// completion; among ready jobs the highest priority starts first.
const NonPreemptiveFP Policy = iota

// String names the policy.
func (p Policy) String() string {
	if p == NonPreemptiveFP {
		return "np-fp"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
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
// policy, which must be NonPreemptiveFP. Tasks with ECU = model.NoECU
// (external stimuli) get R = 0. The graph's tasks must have positive
// periods and non-negative WCETs, as model.Validate checks.
//
// An unschedulable task does not abort the analysis: its WCRT is set to
// the divergent fixed-point value (capped) and listed in
// Result.Unschedulable, so callers can report all violations at once. A
// task whose response-time terms do not fit in int64 is unschedulable
// with WCRT math.MaxInt64.
//
// Each ECU's tasks are sorted once by (Prio, ID). A task's
// higher-priority set hp is then the prefix of that order before its
// priority level, and its blocking set lp is every other task at the same
// or a lower priority (equal priorities block each other and never
// interfere), so max_{j ∈ lp} W_j is a suffix maximum combined with the
// running maximum of the task's own level. The recurrences read hp only
// through its period classes (see class), which grow level by level.
func Analyze(g *model.Graph, policy Policy) *Result {
	if policy != NonPreemptiveFP {
		panic(fmt.Sprintf("sched: unknown policy %d", policy))
	}
	analysesRun.Inc()
	res := &Result{
		WCRT:        make([]timeu.Time, g.NumTasks()),
		Schedulable: true,
	}
	var hp []class       // the period classes of the current level's hp set
	var suf []timeu.Time // suf[k] = max WCET of ids[k:]
	var iters int64      // w(q) fixed-point iterations, added to fpIters once
	for _, ids := range g.TasksByECU() {
		g.SortByPriority(ids)
		suf = append(suf[:0], make([]timeu.Time, len(ids)+1)...)
		for k := len(ids) - 1; k >= 0; k-- {
			suf[k] = max(g.Task(ids[k]).WCET, suf[k+1])
		}
		hp = hp[:0]
		level := 0              // index of the first task at the current priority
		var levelMax timeu.Time // max WCET of ids[level:k]
		for k, id := range ids {
			task := g.Task(id)
			if k > 0 && task.Prio != g.Task(ids[k-1]).Prio {
				// The finished level outranks every task from here on.
				for _, j := range ids[level:k] {
					hp = addClass(hp, g.Task(j))
				}
				level, levelMax = k, 0
			}
			r, ok := npResponseTime(task, hp, max(suf[k+1], levelMax), &iters)
			levelMax = max(levelMax, task.WCET)
			res.WCRT[id] = r
			if !ok || r > task.EffectiveDeadline() {
				res.Schedulable = false
				res.Unschedulable = append(res.Unschedulable, id)
			}
		}
	}
	fpIters.Add(iters)
	slices.Sort(res.Unschedulable)
	return res
}

// class is one period class of a task's higher-priority set: a period
// and the summed WCETs of the hp tasks released with it. The
// interference of hp is a sum over its classes, since
//
//	Σ_{j ∈ hp} n(T_j)·W_j = Σ_p n(p)·Σ_{j ∈ hp, T_j = p} W_j
//
// for any per-period release count n, so a recurrence costs one division
// per distinct period instead of one per task. A sum above math.MaxInt64
// is held at 2^63, so every term it enters overflows as the true sum
// would.
type class struct{ period, wcet uint64 }

// addClass adds task's WCET to the class of its period, opening the class
// if hp has none.
func addClass(hp []class, task *model.Task) []class {
	p := uint64(task.Period)
	for i := range hp {
		if hp[i].period == p {
			hp[i].wcet = min(hp[i].wcet+uint64(task.WCET), 1<<63)
			return hp
		}
	}
	return append(hp, class{p, uint64(task.WCET)})
}

// demand returns base + Σ_c (⌊x/c.period⌋+1)·c.wcet, the work of base
// plus every hp job released in [0, x], and whether it fits in int64.
// base and x are non-negative.
func demand(base, x timeu.Time, hp []class) (timeu.Time, bool) {
	sum, over := uint64(base), uint64(0)
	for _, c := range hp {
		n := uint64(1)
		if uint64(x) >= c.period { // below its period, x needs no division
			n += uint64(x) / c.period
		}
		hi, lo := bits.Mul64(n, c.wcet)
		var carry uint64
		sum, carry = bits.Add64(sum, lo, 0)
		over |= hi | carry
	}
	return timeu.Time(sum), over == 0 && sum <= math.MaxInt64
}

// mulAdd returns a + n·b for non-negative a and b, and whether it fits
// in int64.
func mulAdd(a timeu.Time, n int64, b timeu.Time) (timeu.Time, bool) {
	hi, lo := bits.Mul64(uint64(n), uint64(b))
	sum, carry := bits.Add64(uint64(a), lo, 0)
	return timeu.Time(sum), hi|carry == 0 && sum <= math.MaxInt64
}

// npResponseTime bounds the WCRT of a task under non-preemptive fixed
// priority with the multi-job busy-period analysis of Davis, Burns, Bril
// and Lukkien (RTS 2007), given the period classes of its higher-priority
// tasks hp and its blocking term blk = max_{j ∈ lp} W_j. Under
// non-preemption the first job after the critical instant is NOT
// necessarily the worst (the "refuted" part of that paper's title), so
// every instance q in the level-i busy period is examined:
//
//	L      = smallest t > 0 with t = blk + Σ_{j ∈ hp ∪ {i}} ⌈t/T_j⌉·W_j
//	w(q)   = smallest w with w = blk + q·W_i + Σ_{j ∈ hp} (⌊w/T_j⌋+1)·W_j
//	R      = max over q = 0..⌈L/T_i⌉−1 of w(q) − q·T_i + W_i
//
// Every sum and product is checked: a value beyond int64 returns
// (math.MaxInt64, false). Each w(q) iteration adds one to *iters.
func npResponseTime(task *model.Task, hp []class, blk timeu.Time, iters *int64) (timeu.Time, bool) {
	const overflow = timeu.Time(math.MaxInt64)
	// levelDemand is demand over hp ∪ {i} on top of blk. The busy period
	// reads it at x = t−1, as ⌈t/T⌉ = ⌊(t−1)/T⌋+1 for t > 0, and starts
	// at x = 0, one job of every task.
	self := [1]class{{uint64(task.Period), uint64(task.WCET)}}
	levelDemand := func(x timeu.Time) (timeu.Time, bool) {
		own, ok := demand(blk, x, self[:])
		if !ok {
			return own, false
		}
		return demand(own, x, hp)
	}
	busy, ok := levelDemand(0)
	if !ok {
		return overflow, false
	}
	if busy == 0 {
		// Nothing competes and the task itself is instantaneous.
		return task.WCET, true
	}
	for iter := 0; ; iter++ {
		next, ok := levelDemand(busy - 1)
		if !ok {
			return overflow, false
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
	q := int64(1) // instances in the busy period, ⌈busy/T_i⌉
	if busy > task.Period {
		q = timeu.CeilDiv(busy, task.Period)
	}

	var worst timeu.Time
	for k := int64(0); k < q; k++ {
		// k·T_i < busy, so only the WCET side can overflow.
		base, ok := mulAdd(blk, k, task.WCET)
		w, ok2 := demand(base, 0, hp)
		if !ok || !ok2 {
			return overflow, false
		}
		converged := false
		for iter := 0; iter < maxIterations; iter++ {
			*iters++
			next, ok := demand(base, w, hp)
			if !ok {
				return overflow, false
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
		r, ok := mulAdd(w-timeu.Time(k)*task.Period, 1, task.WCET)
		if !ok {
			return overflow, false
		}
		worst = max(worst, r)
		if !converged {
			return worst, false
		}
	}
	return worst, true
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
