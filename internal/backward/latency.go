package backward

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/timeu"
)

// This file bounds the classical end-to-end latency metric family of
// cause-effect chains — maximum reaction time (MRT), maximum reduced
// reaction time (MRRT), maximum data age (MDA), and maximum reduced data
// age (MRDA), in the nomenclature of Dürr et al. (TECS 2019) and Günzel
// et al. — on top of the same per-hop machinery (theta, buffer shifts,
// WCBT) that powers the disparity analysis. The "reduced" variants
// measure from the sampling release (resp. to the last producing output);
// the full variants add the one-period sampling (resp. holding) slack of
// the chain's end task.

// Latency identifies one metric of the end-to-end latency family.
type Latency int

const (
	// LatencyMRT is the maximum reaction time: the longest span from an
	// external event (which may just miss a stimulus release) to the
	// first chain output reflecting it.
	LatencyMRT Latency = iota
	// LatencyMRRT is the maximum reduced reaction time: reaction measured
	// from the stimulus release that actually samples the event.
	LatencyMRRT
	// LatencyMDA is the maximum data age: how long a source value can
	// remain the freshest data behind the chain output, measured until
	// the output is superseded by the next one.
	LatencyMDA
	// LatencyMRDA is the maximum reduced data age: the age of the source
	// data at the instant the output is published.
	LatencyMRDA
)

// Latencies returns all metrics in canonical (report) order.
func Latencies() []Latency {
	return []Latency{LatencyMRT, LatencyMRRT, LatencyMDA, LatencyMRDA}
}

// String names the metric.
func (m Latency) String() string {
	switch m {
	case LatencyMRT:
		return "MRT"
	case LatencyMRRT:
		return "MRRT"
	case LatencyMDA:
		return "MDA"
	case LatencyMRDA:
		return "MRDA"
	default:
		return fmt.Sprintf("Latency(%d)", int(m))
	}
}

// Ref cites the defining literature for the metric.
func (m Latency) Ref() string {
	switch m {
	case LatencyMRT, LatencyMDA:
		return "Dürr et al., TECS 2019"
	case LatencyMRRT, LatencyMRDA:
		return "Günzel et al., RTSS 2021"
	default:
		return ""
	}
}

// OutputDelay bounds the publish lateness of a task: the maximum of
// f_pub(J) − r(J) over jobs J, where f_pub is the instant the job's
// output token becomes visible to consumers. External stimuli publish
// instantly at release (0), LET tasks publish exactly at their deadline
// (the period), and implicit-communication tasks publish at finish,
// bounded by the WCRT.
func (a *Analyzer) OutputDelay(id model.TaskID) timeu.Time {
	t := a.g.Task(id)
	if t.ECU == model.NoECU {
		return 0
	}
	if t.Sem == model.LET {
		return t.Period
	}
	return a.wcrt.R(id)
}

// BufferShiftHi exposes the Lemma-6 worst-case FIFO shift of one hop,
// (cap−1) maximum producer inter-arrivals, for callers assembling
// latency sums from trie prefixes (core's fast path).
func (a *Analyzer) BufferShiftHi(src, dst model.TaskID) timeu.Time {
	hi, _ := a.bufferShifts(src, dst)
	return hi
}

// ChainLatency returns an upper bound on metric m for the chain.
//
// The reaction-side metrics follow the per-hop "just missed the current
// job" argument: a token published by hop i waits at most one maximum
// inter-arrival of hop i+1 before being sampled, then at most
// OutputDelay(π^{i+1}) until it is forwarded, and buffered channels add
// their Lemma-6 shift. MRT adds the head's inter-arrival for the event
// that just misses a stimulus release.
//
// The age-side metrics reuse the backward-time bound: a token behind an
// output published at f carries source data released no earlier than
// r(tail job) − 𝒲(π), and f − r ≤ OutputDelay(tail), giving MRDA. The
// output stays live until the next tail output supersedes it, at most
// one tail inter-arrival later, giving MDA.
//
// Like WCBT/BCBT, chains mixing LET and implicit scheduled tasks panic
// (see CheckChain).
func (a *Analyzer) ChainLatency(m Latency, pi model.Chain) timeu.Time {
	a.mustUniform(pi)
	switch m {
	case LatencyMRDA:
		return a.WCBT(pi) + a.OutputDelay(pi.Tail())
	case LatencyMDA:
		return a.WCBT(pi) + a.OutputDelay(pi.Tail()) + a.g.Task(pi.Tail()).MaxInterArrival()
	case LatencyMRRT, LatencyMRT:
		sum := a.OutputDelay(pi.Head())
		for _, id := range pi[1:] {
			sum += a.g.Task(id).MaxInterArrival() + a.OutputDelay(id)
		}
		for i := 0; i+1 < pi.Len(); i++ {
			hi, _ := a.bufferShifts(pi[i], pi[i+1])
			sum += hi
		}
		if m == LatencyMRT {
			sum += a.g.Task(pi.Head()).MaxInterArrival()
		}
		return sum
	default:
		panic(fmt.Sprintf("backward: unknown latency metric %v", m))
	}
}
