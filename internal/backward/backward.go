// Package backward bounds the backward time of cause-effect chains.
//
// The backward time of the immediate backward job chain ending at a job J
// of the tail task is len(⃖π) = r(⃖π^{|π|}) − r(⃖π¹): how far in the past
// the source data that J consumes was released. The paper derives
//
//   - an upper bound 𝒲(π) on the worst-case backward time (WCBT) under
//     non-preemptive fixed-priority scheduling (Lemma 4), tighter than the
//     scheduler-agnostic bound of Dürr et al. (TECS 2019, reference [5]);
//   - a lower bound ℬ(π) on the best-case backward time (BCBT), which may
//     be negative (Lemma 5);
//   - the effect of a FIFO input buffer of size n on both bounds
//     (Lemma 6): in steady state both shift by (n−1)·T(π¹).
//
// These bounds are the raw material of the disparity analysis in
// package core.
package backward

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/timeu"
)

// Method selects which WCBT/BCBT derivation to use.
type Method int

const (
	// NonPreemptive is the paper's Lemma 4 / Lemma 5 pair, valid under
	// non-preemptive fixed-priority scheduling.
	NonPreemptive Method = iota
	// Duerr is the scheduler-agnostic baseline in the style of Dürr et
	// al.: θ_i = T(π^i) + R(π^i) on every hop and the trivial BCBT lower
	// bound 0 − R(tail)... see DuerrWCBT/DuerrBCBT for the exact terms.
	Duerr
)

// String names the method.
func (m Method) String() string {
	switch m {
	case NonPreemptive:
		return "np"
	case Duerr:
		return "duerr"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Analyzer computes backward-time bounds against a fixed graph and WCRT
// result. Construct with NewAnalyzer.
type Analyzer struct {
	g      *model.Graph
	wcrt   *sched.Result
	method Method
}

// NewAnalyzer returns an Analyzer using the given response-time analysis
// result. wcrt must come from sched.Analyze on the same graph.
func NewAnalyzer(g *model.Graph, wcrt *sched.Result, method Method) *Analyzer {
	return &Analyzer{g: g, wcrt: wcrt, method: method}
}

// Graph returns the graph under analysis.
func (a *Analyzer) Graph() *model.Graph { return a.g }

// Sched returns the response-time analysis result the bounds read.
func (a *Analyzer) Sched() *sched.Result { return a.wcrt }

// Method returns the backward-bound method the analyzer applies.
func (a *Analyzer) Method() Method { return a.method }

// WCRT returns the response-time bound used for a task.
func (a *Analyzer) WCRT(id model.TaskID) timeu.Time { return a.wcrt.R(id) }

// theta bounds r(⃖π^{i+1}) − r(⃖π^i) for one hop of the immediate backward
// job chain: Lemma 4 for implicit communication, the deterministic
// release-to-release delay for LET producers (a LET job publishes at its
// deadline, so the consumer reads data whose producing job released
// between one and two producer periods earlier).
// For sporadic producers every "next release within T" step weakens to
// "within the maximum inter-arrival time", so T(π^i) is replaced by
// MaxInterArrival(π^i) throughout.
func (a *Analyzer) theta(from, to model.TaskID) timeu.Time {
	t := a.g.Task(from)
	u := a.g.Task(to)
	tmax := t.MaxInterArrival()
	if t.ECU != model.NoECU && t.Sem == model.LET {
		// LET publishes at release + T; the next publish is at most
		// MaxInterArrival later.
		return t.Period + tmax
	}
	if a.method == Duerr {
		return tmax + a.wcrt.R(from)
	}
	if !a.g.SameECU(from, to) {
		// Different ECUs (or an unscheduled stimulus): T(π^i) + R(π^i).
		return tmax + a.wcrt.R(from)
	}
	if a.g.HigherPriority(from, to) {
		return tmax
	}
	return tmax + a.wcrt.R(from) - (t.WCET + u.BCET)
}

// WCBT returns 𝒲(π), an upper bound on the worst-case backward time of
// the chain, honoring the buffer capacities of the chain's channels via
// the (steady-state) generalization of Lemma 6: each channel of capacity
// n adds (n−1)·T(producer). Chains mixing LET and implicit scheduled
// tasks are not supported (see CheckChain) and panic.
func (a *Analyzer) WCBT(pi model.Chain) timeu.Time {
	a.mustUniform(pi)
	return a.wcbt(pi)
}

// Bounds returns (𝒲(π), ℬ(π)) together, checking the chain's semantics
// once. The values are identical to WCBT(pi) and BCBT(pi).
func (a *Analyzer) Bounds(pi model.Chain) (wcbt, bcbt timeu.Time) {
	a.mustUniform(pi)
	return a.wcbt(pi), a.bcbt(pi)
}

// wcbt is the Lemma-4 sum behind WCBT.
func (a *Analyzer) wcbt(pi model.Chain) timeu.Time {
	var w timeu.Time
	for i := 0; i+1 < pi.Len(); i++ {
		hi, _ := a.bufferShifts(pi[i], pi[i+1])
		w += a.theta(pi[i], pi[i+1]) + hi
	}
	return w
}

// BCBT returns ℬ(π), a lower bound on the best-case backward time of the
// chain, plus the same buffer shift as WCBT. Under implicit communication
// this is Lemma 5 (Σ B(π^i) − R(π^{|π|}), possibly negative); under LET
// every scheduled hop delays by at least one full producer period.
func (a *Analyzer) BCBT(pi model.Chain) timeu.Time {
	a.mustUniform(pi)
	return a.bcbt(pi)
}

// bcbt is the Lemma-5 (or LET / baseline) sum behind BCBT.
func (a *Analyzer) bcbt(pi model.Chain) timeu.Time {
	var b timeu.Time
	switch {
	case a.chainLET(pi):
		for i := 0; i+1 < pi.Len(); i++ {
			t := a.g.Task(pi[i])
			if t.ECU != model.NoECU {
				b += t.Period
			}
		}
	case a.method == Duerr:
		// The baseline has no BCBT reasoning; use the trivial bound that a
		// source timestamp cannot postdate the consuming job's release by
		// more than the tail's response time.
		b = -a.wcrt.R(pi.Tail())
	default:
		for _, id := range pi {
			b += a.g.Task(id).BCET
		}
		b -= a.wcrt.R(pi.Tail())
	}
	for i := 0; i+1 < pi.Len(); i++ {
		_, lo := a.bufferShifts(pi[i], pi[i+1])
		b += lo
	}
	return b
}

// chainLET reports whether the chain's scheduled tasks use LET (an empty
// scheduled set counts as implicit).
func (a *Analyzer) chainLET(pi model.Chain) bool {
	for _, id := range pi {
		t := a.g.Task(id)
		if t.ECU != model.NoECU {
			return t.Sem == model.LET
		}
	}
	return false
}

// CheckChain verifies that the chain's scheduled tasks share one
// communication semantics; the closed-form WCBT/BCBT expressions do not
// compose across a mixed chain.
func (a *Analyzer) CheckChain(pi model.Chain) error {
	seen := false
	var sem model.Semantics
	for _, id := range pi {
		t := a.g.Task(id)
		if t.ECU == model.NoECU {
			continue
		}
		if !seen {
			sem, seen = t.Sem, true
			continue
		}
		if t.Sem != sem {
			return fmt.Errorf("backward: chain mixes %v and %v tasks", sem, t.Sem)
		}
	}
	return nil
}

func (a *Analyzer) mustUniform(pi model.Chain) {
	if err := a.CheckChain(pi); err != nil {
		panic(err)
	}
}

// bufferShifts returns both Lemma-6 shifts of the channel src→dst from
// one capacity lookup: hi, the worst-case extra age of a capacity-c
// FIFO's head, (cap−1) producer inter-arrivals at their maximum (equal
// to (cap−1)·T for periodic producers), and lo, the guaranteed extra
// age, (cap−1) minimum inter-arrivals.
func (a *Analyzer) bufferShifts(src, dst model.TaskID) (hi, lo timeu.Time) {
	c := a.g.Buffer(src, dst)
	if c <= 1 {
		return 0, 0
	}
	t := a.g.Task(src)
	return timeu.Time(c-1) * t.MaxInterArrival(), timeu.Time(c-1) * t.Period
}

// Window is a sampling window [Lo, Hi]: the timestamp of the source that
// an output of the analyzed job originates from, relative to the job's
// release at time 0, lies within it (Lemma 1: [−𝒲(π), −ℬ(π)]).
type Window struct {
	Lo, Hi timeu.Time
}

// Width returns Hi − Lo.
func (w Window) Width() timeu.Time { return w.Hi - w.Lo }

// Mid2 returns twice the midpoint, (Lo+Hi); keeping the factor of two
// avoids rounding half-nanoseconds when Algorithm 1 compares midpoints.
func (w Window) Mid2() timeu.Time { return w.Lo + w.Hi }

// Shift returns the window translated by d.
func (w Window) Shift(d timeu.Time) Window { return Window{w.Lo + d, w.Hi + d} }

// String formats the window.
func (w Window) String() string { return fmt.Sprintf("[%v, %v]", w.Lo, w.Hi) }

// SamplingWindow returns the Lemma-1 window [−𝒲(π), −ℬ(π)] of the source
// of the analyzed job's input along π, relative to the job's release.
func (a *Analyzer) SamplingWindow(pi model.Chain) Window {
	return Window{Lo: -a.WCBT(pi), Hi: -a.BCBT(pi)}
}
