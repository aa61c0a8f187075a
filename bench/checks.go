package main

import (
	"fmt"
	"io"
	"reflect"

	"repro/internal/sim"
	"repro/internal/timeu"
)

// jumpCheckEvery samples one sim-periodic op in this many for the
// jump-ahead equivalence check.
const jumpCheckEvery = 50

// checkVerdict checks the invariants every analysis result must meet:
// an untruncated chain set, greedy After ≤ Before starting from the
// verdict's S-diff, and Sim ≤ min(S-diff, P-diff) without overruns on
// every simulated run.
//
// S-diff ≤ P-diff is not among them: Theorem 2 is not pairwise tighter
// than Theorem 1. On about one fusion-dense graph in 250 a pair with
// two common tasks gets a wide alignment interval and S-diff exceeds
// P-diff by tens of microseconds, identically on the reference
// pipeline. Runs report how often (detail sdiff_above_pdiff) instead.
func checkVerdict(in *input, r *result) []string {
	var bad []string
	if r.truncated {
		bad = append(bad, fmt.Sprintf("input %d: chain set truncated", in.index))
	}
	if gr := r.greedy; gr != nil {
		if gr.After > gr.Before {
			bad = append(bad, fmt.Sprintf("input %d: greedy After %v > Before %v", in.index, gr.After, gr.Before))
		}
		if gr.Before != r.sdiff {
			bad = append(bad, fmt.Sprintf("input %d: greedy Before %v != S-diff %v", in.index, gr.Before, r.sdiff))
		}
	}
	return append(bad, checkSims(in, r.sims, min(r.sdiff, r.pdiff))...)
}

// checkPeriodic checks sim-periodic's runs against the bound computed
// at generation and, on one op in jumpCheckEvery, re-runs one
// of its runs without jump-ahead: statistics, channels and observer
// maxima must be identical.
func checkPeriodic(in *input, r *result) []string {
	bad := checkSims(in, r.sims, in.bound)
	if in.index%jumpCheckEvery != 0 || len(r.sims) == 0 {
		return bad
	}
	k := (in.index / jumpCheckEvery) % len(in.runs)
	full, err := runWithoutJump(in, k)
	if err != nil {
		return append(bad, fmt.Sprintf("input %d run %d: no-jump rerun: %v", in.index, k, err))
	}
	if d := diffOutcomes(in, &r.sims[k], full); d != "" {
		bad = append(bad, fmt.Sprintf("input %d run %d: jump-ahead differs from full run: %s", in.index, k, d))
	}
	return bad
}

// runWithoutJump executes sim-periodic run k of the input alone, with
// jump-ahead disabled.
func runWithoutJump(in *input, k int) (*simOutcome, error) {
	spec := periodicSim
	b, err := sim.NewBatch(in.graph, sim.Config{Horizon: spec.horizon, Exec: spec.exec, DisableJumpAhead: true})
	if err != nil {
		return nil, err
	}
	var out simOutcome
	if err := runOne(b, in, in.runs[k], spec, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

func checkSims(in *input, sims []simOutcome, bound timeu.Time) []string {
	var bad []string
	for k := range sims {
		s := &sims[k]
		if s.overruns != 0 {
			bad = append(bad, fmt.Sprintf("input %d run %d: %d overruns", in.index, k, s.overruns))
		}
		if got := s.disp.Max(in.task); got > bound {
			bad = append(bad, fmt.Sprintf("input %d run %d: Sim %v > bound %v", in.index, k, got, bound))
		}
	}
	return bad
}

// diffOutcomes describes the first difference between two runs of the
// same configuration, or returns "".
func diffOutcomes(in *input, a, b *simOutcome) string {
	switch {
	case a.jobs != b.jobs:
		return fmt.Sprintf("jobs %d vs %d", a.jobs, b.jobs)
	case a.overruns != b.overruns:
		return fmt.Sprintf("overruns %d vs %d", a.overruns, b.overruns)
	case a.end != b.end:
		return fmt.Sprintf("end %v vs %v", a.end, b.end)
	case !reflect.DeepEqual(a.channels, b.channels):
		return "channel statistics"
	}
	if da, db := a.disp.Max(in.task), b.disp.Max(in.task); da != db {
		return fmt.Sprintf("disparity %v vs %v", da, db)
	}
	if !reflect.DeepEqual(latencyMaxima(in, a.lat), latencyMaxima(in, b.lat)) {
		return "latency maxima"
	}
	return ""
}

// latencyMaxima lists, per watched source, MRDA, MDA, min fresh age,
// MRRT and MRT (zero where the observer saw no sample).
func latencyMaxima(in *input, o *sim.LatencyObserver) [][5]timeu.Time {
	if o == nil {
		return nil
	}
	out := make([][5]timeu.Time, len(in.sources))
	for i, src := range in.sources {
		out[i][0], _ = o.MaxReducedAge(src)
		out[i][1], _ = o.MaxAge(src)
		out[i][2], _ = o.MinFreshAge(src)
		out[i][3], _ = o.MaxReducedReaction(src)
		out[i][4], _ = o.MaxReaction(src)
	}
	return out
}

// writeResult appends the op's canonical result line to the digest
// stream: bounds, greedy plans and per-run simulation results, but no
// timings and no jump-ahead bookkeeping (which may change without the
// results changing).
func writeResult(w io.Writer, in *input, r *result) {
	fmt.Fprintf(w, "%d pdiff=%d sdiff=%d pairs=%d", in.index, r.pdiff, r.sdiff, r.pairs)
	if gr := r.greedy; gr != nil {
		fmt.Fprintf(w, " greedy=%d->%d", gr.Before, gr.After)
		for _, p := range gr.Plans {
			fmt.Fprintf(w, " [%d>%d cap %d]", p.Edge.Src, p.Edge.Dst, p.Cap)
		}
	}
	for k := range r.sims {
		s := &r.sims[k]
		fmt.Fprintf(w, " run%d=%d/%d/%d", k, s.jobs, s.overruns, s.disp.Max(in.task))
		for _, m := range latencyMaxima(in, s.lat) {
			fmt.Fprintf(w, ",%v", m)
		}
	}
	fmt.Fprintln(w)
}
