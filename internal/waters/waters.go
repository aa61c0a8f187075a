// Package waters generates automotive task parameters following the
// WATERS 2015 industrial challenge characterization by Kramer, Ziegenbein
// and Hamann ("Real world automotive benchmarks for free", the paper's
// reference [14]).
//
// The paper's evaluation draws task periods from the benchmark's period
// distribution (Table III of [14], restricted to {1, 2, 5, 10, 20, 50,
// 100, 200} ms), sets each task's average execution time to the
// per-period ACET (Table IV of [14]), and derives BCET and WCET by
// multiplying the ACET with factors drawn uniformly from the per-period
// ranges of Table V of [14].
package waters

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/model"
	"repro/internal/timeu"
)

// PeriodSpec carries the benchmark statistics of one period class.
type PeriodSpec struct {
	Period timeu.Time
	// Share is the fraction of runnables with this period (Table III).
	Share float64
	// ACET is the average execution time (Table IV).
	ACET timeu.Time
	// BCETFactor and WCETFactor are the uniform ranges [Min, Max] whose
	// samples scale the ACET into BCET and WCET (Table V).
	BCETFactor, WCETFactor [2]float64
}

// Table reproduces Tables III–V of Kramer et al. for the period subset
// used by the paper. Shares are the benchmark percentages; Sample
// renormalizes over the subset. ACETs are in microseconds as published;
// factor ranges are the benchmark's per-period bounds.
var Table = []PeriodSpec{
	{Period: 1 * timeu.Millisecond, Share: 0.03, ACET: ns(5000), BCETFactor: [2]float64{0.19, 0.92}, WCETFactor: [2]float64{1.30, 29.11}},
	{Period: 2 * timeu.Millisecond, Share: 0.02, ACET: ns(4200), BCETFactor: [2]float64{0.12, 0.89}, WCETFactor: [2]float64{1.54, 19.04}},
	{Period: 5 * timeu.Millisecond, Share: 0.02, ACET: ns(11040), BCETFactor: [2]float64{0.17, 0.94}, WCETFactor: [2]float64{1.13, 18.44}},
	{Period: 10 * timeu.Millisecond, Share: 0.25, ACET: ns(10090), BCETFactor: [2]float64{0.05, 0.99}, WCETFactor: [2]float64{1.06, 30.03}},
	{Period: 20 * timeu.Millisecond, Share: 0.25, ACET: ns(8740), BCETFactor: [2]float64{0.11, 0.98}, WCETFactor: [2]float64{1.06, 15.61}},
	{Period: 50 * timeu.Millisecond, Share: 0.03, ACET: ns(17560), BCETFactor: [2]float64{0.32, 0.95}, WCETFactor: [2]float64{1.13, 7.76}},
	{Period: 100 * timeu.Millisecond, Share: 0.20, ACET: ns(10530), BCETFactor: [2]float64{0.09, 0.99}, WCETFactor: [2]float64{1.02, 8.88}},
	{Period: 200 * timeu.Millisecond, Share: 0.01, ACET: ns(2560), BCETFactor: [2]float64{0.45, 0.98}, WCETFactor: [2]float64{1.03, 4.90}},
}

func ns(v int64) timeu.Time { return timeu.Time(v) }

// Params is one generated task parameter set.
type Params struct {
	Period timeu.Time
	BCET   timeu.Time
	WCET   timeu.Time
}

// Sample draws one task's (period, BCET, WCET) from the benchmark
// distribution: the period class by its (renormalized) share, then BCET =
// ACET·U(BCETFactor), WCET = ACET·U(WCETFactor). WCET is clamped to the
// period (the paper assumes schedulable tasks; W ≤ T is the per-task
// necessary condition) and BCET to WCET.
func Sample(rng *rand.Rand) Params {
	spec := Table[sampleClass(rng)]
	b := scale(spec.ACET, uniform(rng, spec.BCETFactor))
	w := scale(spec.ACET, uniform(rng, spec.WCETFactor))
	if w > spec.Period {
		w = spec.Period
	}
	if b > w {
		b = w
	}
	return Params{Period: spec.Period, BCET: b, WCET: w}
}

func sampleClass(rng *rand.Rand) int {
	var total float64
	for _, s := range Table {
		total += s.Share
	}
	x := rng.Float64() * total
	for i, s := range Table {
		x -= s.Share
		if x < 0 {
			return i
		}
	}
	return len(Table) - 1
}

func uniform(rng *rand.Rand, r [2]float64) float64 {
	return r[0] + rng.Float64()*(r[1]-r[0])
}

func scale(d timeu.Time, f float64) timeu.Time {
	v := timeu.Time(float64(d) * f)
	if v < 1 {
		v = 1 // execution times are positive and at least one time unit
	}
	return v
}

// Populate fills in the Period, BCET and WCET of every scheduled task of
// the graph from the benchmark distribution and gives every unscheduled
// stimulus task a benchmark period (with W = B = 0, as the model
// requires). Priorities are then assigned rate-monotonically per ECU.
func Populate(g *model.Graph, rng *rand.Rand) {
	for i := 0; i < g.NumTasks(); i++ {
		t := g.Task(model.TaskID(i))
		p := Sample(rng)
		t.Period = p.Period
		if t.ECU == model.NoECU {
			t.BCET, t.WCET = 0, 0
		} else {
			t.BCET, t.WCET = p.BCET, p.WCET
		}
	}
	assignRM(g)
}

// PopulateBudget fills in periods and execution times like Populate but
// with a per-ECU WCET budget instead of free benchmark draws: periods
// come from the benchmark classes with Period ≥ minPeriod (shares
// renormalized over that subset), and every scheduled task on an ECU
// gets WCET = frac · min-period-on-ECU / task-count, so the ECU's total
// WCET is at most frac times its shortest period. For frac ≤ 1 that
// makes non-preemptive fixed-priority response times converge within
// one period regardless of priority order — fleet-scale graphs are
// schedulable by construction, with no retry loop at 10^3–10^4 tasks.
// BCET applies the class's benchmark BCET factor to the budgeted WCET
// (the factors are ≤ 1 by Validate). Priorities are assigned
// rate-monotonically per ECU.
func PopulateBudget(g *model.Graph, rng *rand.Rand, minPeriod timeu.Time, frac float64) {
	classes := make([]int, 0, len(Table))
	for i, s := range Table {
		if s.Period >= minPeriod {
			classes = append(classes, i)
		}
	}
	if len(classes) == 0 || frac <= 0 {
		panic(fmt.Sprintf("waters: no period class ≥ %v or non-positive budget %v", minPeriod, frac))
	}
	// Pass 1: periods (and the class behind each, for the BCET factor).
	class := make([]int, g.NumTasks())
	for i := 0; i < g.NumTasks(); i++ {
		t := g.Task(model.TaskID(i))
		class[i] = classes[sampleSubset(rng, classes)]
		t.Period = Table[class[i]].Period
		if t.ECU == model.NoECU {
			t.BCET, t.WCET = 0, 0
		}
	}
	// Pass 2: per-ECU WCET budgets.
	for _, ids := range g.TasksByECU() {
		if len(ids) == 0 {
			continue
		}
		minT := g.Task(ids[0]).Period
		for _, id := range ids[1:] {
			if t := g.Task(id).Period; t < minT {
				minT = t
			}
		}
		w := scale(minT, frac/float64(len(ids)))
		for _, id := range ids {
			t := g.Task(id)
			t.WCET = w
			t.BCET = scale(w, uniform(rng, Table[class[int(id)]].BCETFactor))
		}
	}
	assignRM(g)
}

// sampleSubset draws an index into classes by renormalized share.
func sampleSubset(rng *rand.Rand, classes []int) int {
	var total float64
	for _, c := range classes {
		total += Table[c].Share
	}
	x := rng.Float64() * total
	for i, c := range classes {
		x -= Table[c].Share
		if x < 0 {
			return i
		}
	}
	return len(classes) - 1
}

// RandomOffsets draws each task's release offset uniformly from [0, T),
// as in the paper's evaluation setup ("the release offset of each task τ
// is randomly picked from the range of [1, T]").
func RandomOffsets(g *model.Graph, rng *rand.Rand) {
	for i := 0; i < g.NumTasks(); i++ {
		t := g.Task(model.TaskID(i))
		t.Offset = timeu.Time(rng.Int63n(int64(t.Period)))
	}
}

// DrawOffsets draws the same offset sequence as RandomOffsets — one
// Int63n per task in ID order, so the two are interchangeable within a
// deterministic rng stream — but appends to dst instead of mutating
// the graph. Batched simulation (sim.Batch) passes the result as
// per-run offsets, keeping the shared graph untouched.
func DrawOffsets(g *model.Graph, rng *rand.Rand, dst []timeu.Time) []timeu.Time {
	for i := 0; i < g.NumTasks(); i++ {
		t := g.Task(model.TaskID(i))
		dst = append(dst, timeu.Time(rng.Int63n(int64(t.Period))))
	}
	return dst
}

// assignRM mirrors sched.AssignRateMonotonic without importing sched (the
// generator sits below the analysis layers).
func assignRM(g *model.Graph) {
	for _, ids := range g.TasksByECU() {
		slices.SortFunc(ids, func(a, b model.TaskID) int {
			if c := cmp.Compare(g.Task(a).Period, g.Task(b).Period); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		for rank, id := range ids {
			g.Task(id).Prio = rank
		}
	}
}

// Validate sanity-checks the embedded table; it is exercised by tests and
// callers that want an explicit invariant check at startup.
func Validate() error {
	var total float64
	for i, s := range Table {
		if s.Period <= 0 || s.ACET <= 0 {
			return fmt.Errorf("waters: class %d has non-positive period or ACET", i)
		}
		if s.BCETFactor[0] > s.BCETFactor[1] || s.WCETFactor[0] > s.WCETFactor[1] {
			return fmt.Errorf("waters: class %d has inverted factor range", i)
		}
		if s.BCETFactor[1] > 1 {
			return fmt.Errorf("waters: class %d BCET factor exceeds 1", i)
		}
		if s.WCETFactor[0] < 1 {
			return fmt.Errorf("waters: class %d WCET factor below 1", i)
		}
		if s.Share <= 0 || s.Share > 1 {
			return fmt.Errorf("waters: class %d share out of range", i)
		}
		total += s.Share
	}
	if total <= 0 || total > 1 {
		return fmt.Errorf("waters: shares sum to %v", total)
	}
	return nil
}
