package integration

import (
	"math/rand"
	"testing"

	"repro/internal/backward"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/timeu"
	"repro/internal/waters"
)

// This file is the correctness anchor of the latency metric suite: on
// ≥200 seeded WATERS workloads it checks, per metric of the family
// (MRT, MRRT, MDA, MRDA), that
//
//   - the trie fast path (Analysis.Latency) is bit-identical to the
//     enumerate-every-chain reference (Analysis.LatencyReference), for
//     both backward methods;
//   - the analytic orderings hold: MRDA ≤ MDA ≤ MRT and MRRT ≤ MRT,
//     and the Lemma-4 bounds never exceed the Dürr baseline's on the
//     age side while the reaction side (no WCBT term) is method-free;
//   - every value the simulator observes stays below the analytic
//     bound, per source, on the same workload;
//   - the observed per-source metrics obey their definitional
//     orderings, and the observed sink disparity is consistent with
//     the spread of the per-source data ages.

// latencyWorkload builds one corpus entry like diffWorkload, but with
// uniform semantics: the analysis rejects graphs mixing LET and
// implicit scheduled tasks, so the mixed-semantics variant of the
// engine corpus has no analytical counterpart here. LET, buffered
// channels, and sporadic stimuli still rotate through the corpus.
func latencyWorkload(t *testing.T, rng *rand.Rand, trial int) *model.Graph {
	t.Helper()
	g := genWaters(t, rng, 6+rng.Intn(14))
	waters.RandomOffsets(g, rng)
	if trial%5 == 1 || trial%5 == 3 {
		for i := 0; i < g.NumTasks(); i++ {
			task := g.Task(model.TaskID(i))
			if task.ECU != model.NoECU {
				task.Sem = model.LET
			}
		}
	}
	if trial%7 == 2 {
		for _, edge := range g.Edges() {
			if err := g.SetBuffer(edge.Src, edge.Dst, 1+rng.Intn(3)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if trial%6 == 4 {
		for i := 0; i < g.NumTasks(); i++ {
			task := g.Task(model.TaskID(i))
			if task.ECU == model.NoECU {
				task.MaxPeriod = task.Period * 2
			}
		}
	}
	return g
}

// latencyMaxChains caps the reference enumeration; GNM workloads of
// this size essentially never hit it (hits are skipped and counted).
const latencyMaxChains = 1 << 14

// sameLatency demands bit-identical results from the fast path and the
// reference: bound, chain count, truncation, witness chain, and the
// whole per-source decomposition.
func sameLatency(t *testing.T, trial int, m backward.Latency, fast, ref *core.TaskLatency) {
	t.Helper()
	if fast.Bound != ref.Bound || fast.NumChains != ref.NumChains || fast.Truncated != ref.Truncated {
		t.Fatalf("trial %d %v: fast (%v, %d chains, trunc=%v) vs reference (%v, %d chains, trunc=%v)",
			trial, m, fast.Bound, fast.NumChains, fast.Truncated, ref.Bound, ref.NumChains, ref.Truncated)
	}
	if !fast.ArgMax.Equal(ref.ArgMax) {
		t.Fatalf("trial %d %v: witness chains diverge: %v vs %v", trial, m, fast.ArgMax, ref.ArgMax)
	}
	if len(fast.PerSource) != len(ref.PerSource) {
		t.Fatalf("trial %d %v: per-source lengths diverge: %d vs %d",
			trial, m, len(fast.PerSource), len(ref.PerSource))
	}
	for i := range fast.PerSource {
		if fast.PerSource[i] != ref.PerSource[i] {
			t.Fatalf("trial %d %v: per-source[%d] diverges: %+v vs %+v",
				trial, m, i, fast.PerSource[i], ref.PerSource[i])
		}
	}
}

// latencyBounds computes all four metrics on one analysis, checking the
// fast path against the reference as it goes. Truncated results return
// ok=false (the caller skips the trial; see latencyMaxChains).
func latencyBounds(t *testing.T, trial int, a *core.Analysis, sink model.TaskID) (map[backward.Latency]*core.TaskLatency, bool) {
	t.Helper()
	out := make(map[backward.Latency]*core.TaskLatency, 4)
	for _, m := range backward.Latencies() {
		fast, err := a.Latency(sink, m, latencyMaxChains)
		if err != nil {
			t.Fatalf("trial %d %v: %v", trial, m, err)
		}
		if fast.Truncated {
			return nil, false
		}
		ref, err := a.LatencyReference(sink, m, latencyMaxChains)
		if err != nil {
			t.Fatalf("trial %d %v: reference: %v", trial, m, err)
		}
		sameLatency(t, trial, m, fast, ref)
		out[m] = fast
	}
	return out, true
}

// TestLatencyDifferential is the 200-workload harness described above.
func TestLatencyDifferential(t *testing.T) {
	const trials = 200
	horizon := simHorizon / 2
	warmup := 500 * timeu.Millisecond
	if testing.Short() {
		horizon = timeu.Second
		warmup = 250 * timeu.Millisecond
	}
	rng := rand.New(rand.NewSource(2025))
	truncated, samples := 0, 0
	for trial := 0; trial < trials; trial++ {
		g := latencyWorkload(t, rng, trial)
		seed := rng.Int63()

		np, err := core.New(g)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sink := g.Sinks()[0]
		npb, ok := latencyBounds(t, trial, np, sink)
		if !ok {
			truncated++
			continue
		}

		// Cross-metric orderings of the analytic bounds.
		if npb[backward.LatencyMRDA].Bound > npb[backward.LatencyMDA].Bound {
			t.Errorf("trial %d: MRDA %v > MDA %v", trial, npb[backward.LatencyMRDA].Bound, npb[backward.LatencyMDA].Bound)
		}
		if npb[backward.LatencyMDA].Bound > npb[backward.LatencyMRT].Bound {
			t.Errorf("trial %d: MDA %v > MRT %v", trial, npb[backward.LatencyMDA].Bound, npb[backward.LatencyMRT].Bound)
		}
		if npb[backward.LatencyMRRT].Bound > npb[backward.LatencyMRT].Bound {
			t.Errorf("trial %d: MRRT %v > MRT %v", trial, npb[backward.LatencyMRRT].Bound, npb[backward.LatencyMRT].Bound)
		}

		// The Dürr-style baseline dominates the Lemma-4 age bounds; the
		// reaction metrics carry no backward term and must be identical.
		res := sched.Analyze(g, sched.NonPreemptiveFP)
		du := core.NewWithBackward(g, backward.NewAnalyzer(g, res, backward.Duerr))
		dub, ok := latencyBounds(t, trial, du, sink)
		if !ok {
			truncated++
			continue
		}
		for _, m := range []backward.Latency{backward.LatencyMDA, backward.LatencyMRDA} {
			if npb[m].Bound > dub[m].Bound {
				t.Errorf("trial %d: NP %v bound %v exceeds Dürr baseline %v", trial, m, npb[m].Bound, dub[m].Bound)
			}
		}
		for _, m := range []backward.Latency{backward.LatencyMRT, backward.LatencyMRRT} {
			if npb[m].Bound != dub[m].Bound {
				t.Errorf("trial %d: %v differs across backward methods: NP %v vs Dürr %v",
					trial, m, npb[m].Bound, dub[m].Bound)
			}
		}

		// Simulate once and hold every observation against its bound.
		// Watch every stamp origin (external stimuli and source tasks) so
		// the disparity-consistency check below sees the full spread.
		var origins []model.TaskID
		for i := 0; i < g.NumTasks(); i++ {
			id := model.TaskID(i)
			if g.IsSource(id) || g.Task(id).ECU == model.NoECU {
				origins = append(origins, id)
			}
		}
		obs := sim.NewLatencyObserver(sink, origins, warmup)
		disp := sim.NewDisparityObserver(warmup, sink)
		_, err = sim.Run(g, sim.Config{
			Horizon:   horizon,
			Exec:      execModels[trial%len(execModels)],
			Seed:      seed,
			Observers: []sim.Observer{obs, disp},
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		type metricObs struct {
			m   backward.Latency
			get func(model.TaskID) (timeu.Time, bool)
		}
		sides := []metricObs{
			{backward.LatencyMRT, obs.MaxReaction},
			{backward.LatencyMRRT, obs.MaxReducedReaction},
			{backward.LatencyMDA, obs.MaxAge},
			{backward.LatencyMRDA, obs.MaxReducedAge},
		}
		var ageSpreadHi timeu.Time
		ageSpreadSeen := false
		for _, src := range origins {
			for _, mo := range sides {
				v, ok := mo.get(src)
				if !ok {
					continue
				}
				bound, ok := npb[mo.m].Source(src)
				if !ok {
					if !g.IsSource(src) {
						continue // a stamped stimulus fed mid-graph: no chain heads there
					}
					t.Fatalf("trial %d: observed %v flow %s→%s but the analysis has no chain for it",
						trial, mo.m, g.Task(src).Name, g.Task(sink).Name)
				}
				samples++
				if v > bound {
					t.Errorf("trial %d: observed %v %v from source %s exceeds bound %v (exec %s)",
						trial, mo.m, v, g.Task(src).Name, bound, execModels[trial%len(execModels)].Name())
				}
			}
			// Observed orderings per source.
			if mrda, ok := obs.MaxReducedAge(src); ok {
				mda, _ := obs.MaxAge(src)
				if mrda > mda {
					t.Errorf("trial %d: observed MRDA %v > MDA %v (source %s)", trial, mrda, mda, g.Task(src).Name)
				}
				fresh, _ := obs.MinFreshAge(src)
				if fresh < 0 || fresh > mrda {
					t.Errorf("trial %d: fresh age %v outside [0, MRDA %v] (source %s)", trial, fresh, mrda, g.Task(src).Name)
				}
				if !ageSpreadSeen {
					ageSpreadHi, ageSpreadSeen = mrda-fresh, true
				} else {
					ageSpreadHi = timeu.Max(ageSpreadHi, mrda-fresh)
				}
			}
			if mrrt, ok := obs.MaxReducedReaction(src); ok {
				if mrt, _ := obs.MaxReaction(src); mrrt > mrt {
					t.Errorf("trial %d: observed MRRT %v > MRT %v (source %s)", trial, mrrt, mrt, g.Task(src).Name)
				}
			}
		}
		// Disparity consistency: an output's stamp span is the gap between
		// its oldest age and its freshest age, so the observed disparity
		// cannot exceed the widest per-source age spread... per source the
		// spread is at most maxMRDA − minFresh, and across sources at most
		// the max oldest age minus the min freshest age.
		if d := disp.Max(sink); d > 0 {
			var oldest, freshest timeu.Time
			seen := false
			for _, src := range origins {
				mrda, ok := obs.MaxReducedAge(src)
				if !ok {
					continue
				}
				fresh, _ := obs.MinFreshAge(src)
				if !seen {
					oldest, freshest, seen = mrda, fresh, true
				} else {
					oldest = timeu.Max(oldest, mrda)
					freshest = timeu.Min(freshest, fresh)
				}
			}
			if !seen {
				t.Errorf("trial %d: sink disparity %v observed with no per-source age samples", trial, d)
			} else if d > oldest-freshest {
				t.Errorf("trial %d: sink disparity %v exceeds age spread %v (oldest %v, freshest %v)",
					trial, d, oldest-freshest, oldest, freshest)
			}
		}
	}
	if truncated > trials/10 {
		t.Errorf("%d/%d trials truncated at MaxChains=%d; the corpus no longer exercises the harness", truncated, trials, latencyMaxChains)
	}
	// The harness is only meaningful if simulated data actually reached
	// the sinks: demand several bound comparisons per trial on average.
	if samples < 4*trials {
		t.Errorf("only %d observed samples across %d trials; the corpus no longer exercises the bounds", samples, trials)
	}
}
