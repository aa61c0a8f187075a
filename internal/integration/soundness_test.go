// Package integration validates the central claims of the reproduction
// end to end: on randomly generated WATERS workloads, the observed
// behavior of the discrete-event simulator must respect every analytical
// bound — backward times within [ℬ(π), 𝒲(π)] (Lemmas 4/5), disparities
// below P-diff and S-diff (Theorems 1/2), and the buffered system below
// the Theorem-3 bound.
package integration

import (
	"math/rand"
	"testing"

	"repro/internal/backward"
	"repro/internal/chains"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/randgraph"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/timeu"
	"repro/internal/waters"
)

const simHorizon = 4 * timeu.Second

// execModels are mixed across runs to probe different corners of the
// behavior space.
var execModels = []sim.ExecModel{
	sim.WCETExec{},
	sim.BCETExec{},
	sim.UniformExec{},
	sim.ExtremesExec{P: 0.5},
	sim.ExtremesExec{P: 0.9},
}

// genWaters builds a schedulable WATERS-parameterized GNM graph.
func genWaters(t *testing.T, rng *rand.Rand, n int) *model.Graph {
	t.Helper()
	for attempt := 0; attempt < 50; attempt++ {
		g, err := randgraph.GNM(n, 2*n, randgraph.DefaultConfig(), rng)
		if err != nil {
			t.Fatal(err)
		}
		waters.Populate(g, rng)
		if res := sched.Analyze(g, sched.NonPreemptiveFP); res.Schedulable {
			return g
		}
	}
	t.Fatal("could not generate a schedulable workload in 50 attempts")
	return nil
}

func TestBackwardBoundsContainSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 8; trial++ {
		g := genWaters(t, rng, 8+rng.Intn(10))
		waters.RandomOffsets(g, rng)
		res := sched.Analyze(g, sched.NonPreemptiveFP)
		an := backward.NewAnalyzer(g, res, backward.NonPreemptive)

		sink := g.Sinks()[0]
		all, err := chains.Enumerate(g, sink, 0)
		if err != nil {
			t.Fatal(err)
		}
		// One backward observer per (source) chain head; on DAGs the
		// observed range aggregates all paths from that source, so compare
		// against the min BCBT / max WCBT over the source's chains.
		type bound struct{ lo, hi timeu.Time }
		bounds := map[model.TaskID]bound{}
		for _, c := range all {
			b := bound{lo: an.BCBT(c), hi: an.WCBT(c)}
			if prev, ok := bounds[c.Head()]; ok {
				b.lo = timeu.Min(b.lo, prev.lo)
				b.hi = timeu.Max(b.hi, prev.hi)
			}
			bounds[c.Head()] = b
		}
		obs := map[model.TaskID]*sim.BackwardObserver{}
		var observers []sim.Observer
		for head := range bounds {
			o := sim.NewBackwardObserver(sink, head, timeu.Second)
			obs[head] = o
			observers = append(observers, o)
		}
		_, err = sim.Run(g, sim.Config{
			Horizon:   simHorizon,
			Exec:      execModels[trial%len(execModels)],
			Seed:      int64(trial),
			Observers: observers,
		})
		if err != nil {
			t.Fatal(err)
		}
		for head, o := range obs {
			min, max, ok := o.Range()
			if !ok {
				continue // source data never reached the sink before horizon
			}
			b := bounds[head]
			if min < b.lo {
				t.Errorf("trial %d: observed backward %v below BCBT bound %v (source %s)",
					trial, min, b.lo, g.Task(head).Name)
			}
			if max > b.hi {
				t.Errorf("trial %d: observed backward %v above WCBT bound %v (source %s)",
					trial, max, b.hi, g.Task(head).Name)
			}
		}
	}
}

func TestDisparityBoundsContainSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 8; trial++ {
		g := genWaters(t, rng, 6+rng.Intn(12))
		waters.RandomOffsets(g, rng)
		a, err := core.New(g)
		if err != nil {
			t.Fatal(err)
		}
		sink := g.Sinks()[0]
		pd, err := a.Disparity(sink, core.PDiff, 0)
		if err != nil {
			t.Fatal(err)
		}
		sd, err := a.Disparity(sink, core.SDiff, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(pd.Pairs) == 0 {
			continue // single-source graph: disparity trivially 0
		}
		do := sim.NewDisparityObserver(timeu.Second, sink)
		_, err = sim.Run(g, sim.Config{
			Horizon:   simHorizon,
			Exec:      execModels[(trial+1)%len(execModels)],
			Seed:      int64(trial) * 7,
			Observers: []sim.Observer{do},
		})
		if err != nil {
			t.Fatal(err)
		}
		observed := do.Max(sink)
		if observed > pd.Bound {
			t.Errorf("trial %d: Sim %v exceeds P-diff %v", trial, observed, pd.Bound)
		}
		if observed > sd.Bound {
			t.Errorf("trial %d: Sim %v exceeds S-diff %v", trial, observed, sd.Bound)
		}
	}
}

func TestTwoChainOptimizationSoundAndEffective(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	improvedBound, improvedSim, rounds := 0, 0, 0
	for trial := 0; trial < 10; trial++ {
		g, la, nu, err := randgraph.TwoChains(4+rng.Intn(6), randgraph.DefaultConfig(), rng)
		if err != nil {
			t.Fatal(err)
		}
		waters.Populate(g, rng)
		if res := sched.Analyze(g, sched.NonPreemptiveFP); !res.Schedulable {
			continue
		}
		waters.RandomOffsets(g, rng)
		a, err := core.New(g)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := a.Optimize(la, nu)
		if err != nil {
			t.Fatal(err)
		}
		if plan.After > plan.Before {
			t.Fatalf("trial %d: optimization worsened the bound: %v -> %v", trial, plan.Before, plan.After)
		}
		sink := la.Tail()
		runSim := func(gr *model.Graph, seed int64) timeu.Time {
			do := sim.NewDisparityObserver(timeu.Second, sink)
			if _, err := sim.Run(gr, sim.Config{
				Horizon:   simHorizon,
				Exec:      sim.ExtremesExec{P: 0.5},
				Seed:      seed,
				Observers: []sim.Observer{do},
			}); err != nil {
				t.Fatal(err)
			}
			return do.Max(sink)
		}
		simBefore := runSim(g, int64(trial))
		buffered := g.Clone()
		if err := plan.Apply(buffered); err != nil {
			t.Fatal(err)
		}
		simAfter := runSim(buffered, int64(trial))

		// Soundness: each simulated system stays below its bound.
		if simBefore > plan.Before {
			t.Errorf("trial %d: Sim %v exceeds S-diff %v", trial, simBefore, plan.Before)
		}
		if simAfter > plan.After {
			t.Errorf("trial %d: Sim-B %v exceeds S-diff-B %v", trial, simAfter, plan.After)
		}
		rounds++
		if plan.After < plan.Before {
			improvedBound++
		}
		if simAfter <= simBefore {
			improvedSim++
		}
	}
	if rounds == 0 {
		t.Fatal("no schedulable two-chain workloads generated")
	}
	// Effectiveness (the paper's Fig. 6(c) message): the bound drops in
	// most cases and the observed disparity does not systematically rise.
	if improvedBound*2 < rounds {
		t.Errorf("buffering improved the bound in only %d/%d rounds", improvedBound, rounds)
	}
	if improvedSim*2 < rounds {
		t.Errorf("buffering reduced observed disparity in only %d/%d rounds", improvedSim, rounds)
	}
}

// TestLETDisparityBoundsContainSimulation repeats the disparity soundness
// check on all-LET workloads: the LET variants of the backward bounds
// must dominate the (execution-time-independent) simulated disparity.
func TestLETDisparityBoundsContainSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	for trial := 0; trial < 8; trial++ {
		g := genWaters(t, rng, 6+rng.Intn(10))
		for i := 0; i < g.NumTasks(); i++ {
			g.Task(model.TaskID(i)).Sem = model.LET
		}
		waters.RandomOffsets(g, rng)
		a, err := core.New(g)
		if err != nil {
			t.Fatal(err)
		}
		sink := g.Sinks()[0]
		sd, err := a.Disparity(sink, core.SDiff, 0)
		if err != nil {
			t.Fatal(err)
		}
		pd, err := a.Disparity(sink, core.PDiff, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(sd.Pairs) == 0 {
			continue
		}
		do := sim.NewDisparityObserver(timeu.Second, sink)
		if _, err := sim.Run(g, sim.Config{
			Horizon:   simHorizon,
			Exec:      execModels[trial%len(execModels)],
			Seed:      int64(trial),
			Observers: []sim.Observer{do},
		}); err != nil {
			t.Fatal(err)
		}
		observed := do.Max(sink)
		if observed > sd.Bound {
			t.Errorf("trial %d: LET Sim %v exceeds S-diff %v", trial, observed, sd.Bound)
		}
		if observed > pd.Bound {
			t.Errorf("trial %d: LET Sim %v exceeds P-diff %v", trial, observed, pd.Bound)
		}
	}
}

// TestE2EBoundsContainSimulation checks the end-to-end latency metrics:
// observed data ages (the reduced age MRDA and the fresh age) within
// [MinDataAge, DataAge] ⊆ [0-ish, Davare], and observed reduced reaction
// times (MRRT) below the Reaction bound.
func TestE2EBoundsContainSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	for trial := 0; trial < 6; trial++ {
		g, la, _, err := randgraph.TwoChains(3+rng.Intn(5), randgraph.DefaultConfig(), rng)
		if err != nil {
			t.Fatal(err)
		}
		waters.Populate(g, rng)
		res := sched.Analyze(g, sched.NonPreemptiveFP)
		if !res.Schedulable {
			continue
		}
		waters.RandomOffsets(g, rng)
		an := backward.NewAnalyzer(g, res, backward.NonPreemptive)
		src, tail := la.Head(), la.Tail()
		obs := sim.NewLatencyObserver(tail, []model.TaskID{src}, timeu.Second)
		if _, err := sim.Run(g, sim.Config{
			Horizon:   simHorizon,
			Exec:      execModels[trial%len(execModels)],
			Seed:      int64(trial),
			Observers: []sim.Observer{obs},
		}); err != nil {
			t.Fatal(err)
		}
		maxAge, ok := obs.MaxReducedAge(src)
		if !ok {
			continue
		}
		minAge, _ := obs.MinFreshAge(src)
		if maxAge > an.DataAge(la) {
			t.Errorf("trial %d: observed age %v above DataAge bound %v", trial, maxAge, an.DataAge(la))
		}
		if minAge < an.MinDataAge(la) {
			t.Errorf("trial %d: observed age %v below MinDataAge bound %v", trial, minAge, an.MinDataAge(la))
		}
		if an.DataAge(la) > an.DavareBound(la) {
			t.Errorf("trial %d: DataAge bound above Davare baseline", trial)
		}
		if r, ok := obs.MaxReducedReaction(src); ok && r > an.Reaction(la) {
			t.Errorf("trial %d: observed reaction %v above bound %v", trial, r, an.Reaction(la))
		}
	}
}

// TestSimCanApproachBounds guards against vacuously loose soundness: on
// the two-chain topology the observed disparity should reach a
// non-trivial fraction of the S-diff bound at least sometimes; a
// simulator bug that loses timestamps would drive Sim to ~0 everywhere.
func TestSimCanApproachBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	best := 0.0
	for trial := 0; trial < 10; trial++ {
		g, la, nu, err := randgraph.TwoChains(5, randgraph.DefaultConfig(), rng)
		if err != nil {
			t.Fatal(err)
		}
		waters.Populate(g, rng)
		if res := sched.Analyze(g, sched.NonPreemptiveFP); !res.Schedulable {
			continue
		}
		waters.RandomOffsets(g, rng)
		a, err := core.New(g)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := a.PairDisparity(la, nu, core.SDiff)
		if err != nil {
			t.Fatal(err)
		}
		if pb.Bound == 0 {
			continue
		}
		do := sim.NewDisparityObserver(timeu.Second, la.Tail())
		if _, err := sim.Run(g, sim.Config{
			Horizon:   simHorizon,
			Exec:      sim.ExtremesExec{P: 0.5},
			Seed:      int64(trial),
			Observers: []sim.Observer{do},
		}); err != nil {
			t.Fatal(err)
		}
		if r := float64(do.Max(la.Tail())) / float64(pb.Bound); r > best {
			best = r
		}
	}
	if best < 0.2 {
		t.Errorf("simulated disparity never exceeded %.2f of the S-diff bound; simulator or analysis suspiciously misaligned", best)
	}
}
