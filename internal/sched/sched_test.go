package sched

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/can"
	"repro/internal/model"
	"repro/internal/randgraph"
	"repro/internal/timeu"
	"repro/internal/waters"
)

const ms = timeu.Millisecond

// twoTaskGraph builds two tasks on one ECU with the given parameters.
func twoTaskGraph(w1, t1, w2, t2 timeu.Time) *model.Graph {
	g := model.NewGraph()
	ecu := g.AddECU("ecu0", model.Compute)
	g.AddTask(model.Task{Name: "hi", WCET: w1, BCET: w1, Period: t1, Prio: 0, ECU: ecu})
	g.AddTask(model.Task{Name: "lo", WCET: w2, BCET: w2, Period: t2, Prio: 1, ECU: ecu})
	return g
}

func TestNPSingleTask(t *testing.T) {
	g := model.NewGraph()
	ecu := g.AddECU("ecu0", model.Compute)
	id := g.AddTask(model.Task{Name: "only", WCET: 3 * ms, BCET: ms, Period: 10 * ms, Prio: 0, ECU: ecu})
	res := Analyze(g, NonPreemptiveFP)
	if got := res.R(id); got != 3*ms {
		t.Errorf("R = %v, want 3ms (no competition)", got)
	}
	if !res.Schedulable {
		t.Error("single task must be schedulable")
	}
}

func TestNPBlockingAndInterference(t *testing.T) {
	// hi: W=2, T=10. lo: W=4, T=20.
	g := twoTaskGraph(2*ms, 10*ms, 4*ms, 20*ms)
	res := Analyze(g, NonPreemptiveFP)

	// hi is blocked by at most one lo job: w = 4, one hi release fits
	// check: w = 4 (blk) ... fixed point w = 4 (no hp for hi). R = 4+2 = 6.
	if got := res.R(0); got != 6*ms {
		t.Errorf("R(hi) = %v, want 6ms", got)
	}
	// lo: blk = 0, hp = {hi}: w = (floor(w/10)+1)*2 -> w=2; R = 2+4 = 6.
	if got := res.R(1); got != 6*ms {
		t.Errorf("R(lo) = %v, want 6ms", got)
	}
	if !res.Schedulable {
		t.Error("set should be schedulable")
	}
}

func TestNPInterferenceMultipleReleases(t *testing.T) {
	// hi: W=3, T=5. lo: W=4, T=20.
	// lo start: w0 = 3; f(3)=(floor(3/5)+1)*3=3 -> fixed. R=3+4=7.
	g := twoTaskGraph(3*ms, 5*ms, 4*ms, 20*ms)
	res := Analyze(g, NonPreemptiveFP)
	if got := res.R(1); got != 7*ms {
		t.Errorf("R(lo) = %v, want 7ms", got)
	}

	// Make lo long enough that its start is pushed past a second hi release:
	// hi: W=3, T=5; lo: W=1, T=20 -> w=3, R=4. Now with a mid task to push:
	g2 := model.NewGraph()
	ecu := g2.AddECU("e", model.Compute)
	g2.AddTask(model.Task{Name: "hi", WCET: 3 * ms, BCET: 3 * ms, Period: 5 * ms, Prio: 0, ECU: ecu})
	g2.AddTask(model.Task{Name: "mid", WCET: 2 * ms, BCET: 2 * ms, Period: 20 * ms, Prio: 1, ECU: ecu})
	lo := g2.AddTask(model.Task{Name: "lo", WCET: 1 * ms, BCET: 1 * ms, Period: 40 * ms, Prio: 2, ECU: ecu})
	// lo: blk=0, hp={hi,mid}: w0=5, f(5)=(⌊5/5⌋+1)*3+(⌊5/20⌋+1)*2=6+2=8,
	// f(8)=(1+1)*3+2=8 fixed. R=8+1=9.
	res2 := Analyze(g2, NonPreemptiveFP)
	if got := res2.R(lo); got != 9*ms {
		t.Errorf("R(lo) = %v, want 9ms", got)
	}
}

// TestNPMultiJobBusyPeriod reproduces the essence of Davis et al.'s
// refutation of single-instance non-preemptive analysis: for
// A(W=2,T=5) ≻ B(W=2,T=7) ≻ C(W=2,T=7) on one processor, the FIRST job
// of C after the critical instant responds in 6, but the SECOND job
// responds in 7 (w(1) = 12 − 7 + 2). An analysis looking only at q = 0
// would report 6.
func TestNPMultiJobBusyPeriod(t *testing.T) {
	g := model.NewGraph()
	ecu := g.AddECU("e", model.Compute)
	g.AddTask(model.Task{Name: "A", WCET: 2 * ms, BCET: ms, Period: 5 * ms, Prio: 0, ECU: ecu})
	g.AddTask(model.Task{Name: "B", WCET: 2 * ms, BCET: ms, Period: 7 * ms, Prio: 1, ECU: ecu})
	c := g.AddTask(model.Task{Name: "C", WCET: 2 * ms, BCET: ms, Period: 7 * ms, Prio: 2, ECU: ecu})
	res := Analyze(g, NonPreemptiveFP)
	if got := res.R(c); got != 7*ms {
		t.Errorf("R(C) = %v, want 7ms (q=1 instance dominates)", got)
	}
	if !res.Schedulable {
		t.Errorf("set is schedulable (R(C)=7 ≤ T=7): %v", res.Unschedulable)
	}
}

// TestNPMultiJobAgainstSimulation drives the same task set through the
// simulator with adversarial offsets and confirms a response of 7ms is
// actually reached, so the multi-job bound is tight here.
func TestNPMultiJobAgainstSimulation(t *testing.T) {
	g := model.NewGraph()
	ecu := g.AddECU("e", model.Compute)
	g.AddTask(model.Task{Name: "A", WCET: 2 * ms, BCET: 2 * ms, Period: 5 * ms, Prio: 0, ECU: ecu})
	g.AddTask(model.Task{Name: "B", WCET: 2 * ms, BCET: 2 * ms, Period: 7 * ms, Prio: 1, ECU: ecu})
	g.AddTask(model.Task{Name: "C", WCET: 2 * ms, BCET: 2 * ms, Period: 7 * ms, Prio: 2, ECU: ecu})
	// The critical instant: C released with everything else; all at WCET.
	// (Validated indirectly through trace.Summarize in package trace; here
	// just check the analysis is not below the trivial lower bound.)
	res := Analyze(g, NonPreemptiveFP)
	if res.R(2) < 6*ms {
		t.Errorf("R(C) = %v below the single-instance value", res.R(2))
	}
}

func TestNPUnschedulableDetected(t *testing.T) {
	// Overloaded: hi W=4 T=5 (u=0.8), lo W=4 T=10 (u=0.4).
	g := twoTaskGraph(4*ms, 5*ms, 4*ms, 10*ms)
	res := Analyze(g, NonPreemptiveFP)
	if res.Schedulable {
		t.Error("overloaded set reported schedulable")
	}
	if len(res.Unschedulable) == 0 {
		t.Error("no unschedulable tasks listed")
	}
}

func TestSourceTasksGetZero(t *testing.T) {
	g := model.Fig2Graph()
	res := Analyze(g, NonPreemptiveFP)
	t1, _ := g.TaskByName("t1")
	if res.R(t1.ID) != 0 {
		t.Errorf("R(source) = %v, want 0", res.R(t1.ID))
	}
	if !res.Schedulable {
		t.Errorf("Fig2 graph should be schedulable; violations: %v", res.Unschedulable)
	}
}

func TestUtilization(t *testing.T) {
	g := twoTaskGraph(2*ms, 10*ms, 4*ms, 20*ms)
	if got := Utilization(g)[0]; got != 0.4 {
		t.Errorf("Utilization = %v, want 0.4", got)
	}
	// Sources don't contribute.
	var got float64
	for _, u := range Utilization(model.Fig2Graph()) {
		got += u
	}
	if want := 2.0/10 + 3.0/20 + 4.0/30 + 5.0/30; !almost(got, want) {
		t.Errorf("Σ Utilization(fig2) = %v, want %v", got, want)
	}
}

func almost(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

func TestAssignRateMonotonic(t *testing.T) {
	g := model.NewGraph()
	ecu := g.AddECU("e", model.Compute)
	slow := g.AddTask(model.Task{Name: "slow", WCET: ms, BCET: ms, Period: 100 * ms, Prio: 0, ECU: ecu})
	fast := g.AddTask(model.Task{Name: "fast", WCET: ms, BCET: ms, Period: 5 * ms, Prio: 1, ECU: ecu})
	mid := g.AddTask(model.Task{Name: "mid", WCET: ms, BCET: ms, Period: 20 * ms, Prio: 2, ECU: ecu})
	AssignRateMonotonic(g)
	if g.Task(fast).Prio != 0 || g.Task(mid).Prio != 1 || g.Task(slow).Prio != 2 {
		t.Errorf("RM priorities wrong: fast=%d mid=%d slow=%d",
			g.Task(fast).Prio, g.Task(mid).Prio, g.Task(slow).Prio)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("graph invalid after RM assignment: %v", err)
	}
}

func TestAssignRateMonotonicTieBreak(t *testing.T) {
	g := model.NewGraph()
	ecu := g.AddECU("e", model.Compute)
	a := g.AddTask(model.Task{Name: "a", WCET: ms, BCET: ms, Period: 10 * ms, ECU: ecu})
	b := g.AddTask(model.Task{Name: "b", WCET: ms, BCET: ms, Period: 10 * ms, ECU: ecu})
	AssignRateMonotonic(g)
	if g.Task(a).Prio != 0 || g.Task(b).Prio != 1 {
		t.Error("equal periods must tie-break by ID")
	}
}

// Property: on random schedulable-looking task sets, (1) the WCRT of the
// highest-priority task equals its WCET plus max lower blocking, and
// (2) every reported-schedulable task has R ≥ WCET and R ≤ T.
func TestNPRandomProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		g := model.NewGraph()
		ecu := g.AddECU("e", model.Compute)
		n := 2 + rng.Intn(5)
		for i := 0; i < n; i++ {
			period := timeu.Time(10+rng.Intn(90)) * ms
			wcet := timeu.Time(1+rng.Intn(5)) * ms / 2
			g.AddTask(model.Task{
				Name: "", WCET: wcet, BCET: wcet / 2, Period: period,
				Prio: i, ECU: ecu,
			})
		}
		res := Analyze(g, NonPreemptiveFP)
		var blk timeu.Time
		for i := 1; i < n; i++ {
			blk = timeu.Max(blk, g.Task(model.TaskID(i)).WCET)
		}
		if want := blk + g.Task(0).WCET; res.R(0) != want {
			t.Fatalf("trial %d: R(top) = %v, want blocking+WCET = %v", trial, res.R(0), want)
		}
		if res.Schedulable {
			for i := 0; i < n; i++ {
				task := g.Task(model.TaskID(i))
				if res.R(task.ID) < task.WCET || res.R(task.ID) > task.Period {
					t.Fatalf("trial %d: R out of range for %s: %v", trial, task.Name, res.R(task.ID))
				}
			}
		}
	}
}

func TestPolicyString(t *testing.T) {
	if NonPreemptiveFP.String() != "np-fp" {
		t.Error("Policy.String broken")
	}
	if Policy(9).String() != "Policy(9)" {
		t.Error("unknown policy string broken")
	}
}

func TestAssignTopological(t *testing.T) {
	g := model.Fig2Graph()
	// Scramble priorities first.
	t3, _ := g.TaskByName("t3")
	t4, _ := g.TaskByName("t4")
	t5, _ := g.TaskByName("t5")
	t6, _ := g.TaskByName("t6")
	t3.Prio, t4.Prio, t5.Prio, t6.Prio = 3, 2, 1, 0
	if err := AssignTopological(g); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every same-ECU edge has the producer at higher priority.
	for _, e := range g.Edges() {
		if !g.SameECU(e.Src, e.Dst) {
			continue
		}
		if !g.HigherPriority(e.Src, e.Dst) {
			t.Errorf("edge %s -> %s: producer not above consumer",
				g.Task(e.Src).Name, g.Task(e.Dst).Name)
		}
	}
	// Cyclic graphs are rejected.
	bad := model.NewGraph()
	ecu := bad.AddECU("e", model.Compute)
	a := bad.AddTask(model.Task{Name: "a", WCET: ms, BCET: ms, Period: 10 * ms, Prio: 0, ECU: ecu})
	b := bad.AddTask(model.Task{Name: "b", WCET: ms, BCET: ms, Period: 10 * ms, Prio: 1, ECU: ecu})
	if err := bad.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	if err := bad.AddEdge(b, a); err != nil {
		t.Fatal(err)
	}
	if err := AssignTopological(bad); err == nil {
		t.Error("cycle accepted")
	}
}

func TestConstrainedDeadlines(t *testing.T) {
	// hi W=2 T=10, lo W=4 T=20: R(hi)=6 from blocking. With an implicit
	// deadline that is fine; a constrained deadline of 5ms is violated.
	g := twoTaskGraph(2*ms, 10*ms, 4*ms, 20*ms)
	if res := Analyze(g, NonPreemptiveFP); !res.Schedulable {
		t.Fatal("implicit-deadline variant should be schedulable")
	}
	g.Task(0).Deadline = 5 * ms
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	res := Analyze(g, NonPreemptiveFP)
	if res.Schedulable {
		t.Error("deadline 5ms < R 6ms not flagged")
	}
	g.Task(0).Deadline = 6 * ms
	if res := Analyze(g, NonPreemptiveFP); !res.Schedulable {
		t.Error("deadline 6ms = R should pass")
	}
}

func TestDeadlineValidation(t *testing.T) {
	g := twoTaskGraph(2*ms, 10*ms, 4*ms, 20*ms)
	g.Task(0).Deadline = ms // below WCET
	if err := g.Validate(); err == nil {
		t.Error("deadline below WCET accepted")
	}
	g.Task(0).Deadline = 11 * ms // above period
	if err := g.Validate(); err == nil {
		t.Error("deadline above period accepted")
	}
}

// TestNPLongPeriodGuard runs a set with periods above the ~2.4 h where
// 2^20·T overflows int64, including a 3 h task. The overload guard must
// not cut the busy period short on this schedulable set: the WCRTs equal
// those of the same set in 30 ms units, scaled, so R(C) keeps the q = 1
// instance of its busy period (a truncated busy period gives 3h30m).
func TestNPLongPeriodGuard(t *testing.T) {
	build := func(u timeu.Time) *model.Graph {
		g := model.NewGraph()
		ecu := g.AddECU("e", model.Compute)
		g.AddTask(model.Task{Name: "A", WCET: u, BCET: u, Period: 4 * u, Prio: 0, ECU: ecu})
		g.AddTask(model.Task{Name: "B", WCET: 3 * u, BCET: u, Period: 6 * u, Prio: 1, ECU: ecu})
		g.AddTask(model.Task{Name: "C", WCET: 2 * u, BCET: u, Period: 8 * u, Prio: 2, ECU: ecu})
		return g
	}
	const small, large = 30 * ms, 30 * timeu.Minute
	want := Analyze(build(small), NonPreemptiveFP)
	got := Analyze(build(large), NonPreemptiveFP)
	if !got.Schedulable {
		t.Fatalf("long-period set reported unschedulable: %v", got.Unschedulable)
	}
	for id, r := range want.WCRT {
		if got.WCRT[id] != r/small*large {
			t.Errorf("R(%d) = %v, want %v (scaled from %v)", id, got.WCRT[id], r/small*large, r)
		}
	}
	if got.WCRT[2] != 8*large {
		t.Errorf("R(C) = %v, want 4h", got.WCRT[2])
	}
}

// The response-time analysis as formulated before the per-ECU priority
// index and the period classes: hp and lp rebuilt for every task by
// scanning its ECU, and the recurrences summed task by task. It is the
// oracle Analyze is pinned to, in WCRTs, verdicts and fixed-point
// iterations.

// refDemand is one higher-priority task as the per-task recurrences read
// it.
type refDemand struct{ wcet, period timeu.Time }

func refInterferers(g *model.Graph, id model.TaskID) (hp []refDemand, blk timeu.Time) {
	task := g.Task(id)
	for _, other := range g.TasksOnECU(task.ECU) {
		if other == id {
			continue
		}
		o := g.Task(other)
		if o.Prio < task.Prio {
			hp = append(hp, refDemand{o.WCET, o.Period})
		} else {
			blk = timeu.Max(blk, o.WCET)
		}
	}
	return hp, blk
}

// refStats counts what the oracle's recurrences did over a corpus, so a
// test can check that the corpus reached the guards it is meant to.
type refStats struct {
	iters       int64 // w(q) fixed-point iterations (sched.fixedpoint.iterations)
	periodGuard int   // busy periods cut at 2^20 periods of the task
	busyCap     int   // busy periods cut at maxIterations
	wCap        int   // w(q) iterations cut at maxIterations
	overflow    int   // tasks whose terms left int64
	unsched     int   // tasks listed as unschedulable
	tasks       int   // scheduled tasks analysed
}

// refSum returns base + Σ_{j ∈ hp} n(T_j)·W_j, term by term, and whether
// it fits in int64. Every term is non-negative, so the first partial sum
// that overflows decides.
func refSum(base timeu.Time, hp []refDemand, n func(period timeu.Time) int64) (timeu.Time, bool) {
	sum, ok := base, true
	for _, o := range hp {
		if sum, ok = mulAdd(sum, n(o.period), o.wcet); !ok {
			break
		}
	}
	return sum, ok
}

// refNPResponseTime is npResponseTime over the individual hp tasks.
func refNPResponseTime(task *model.Task, hp []refDemand, blk timeu.Time, st *refStats) (timeu.Time, bool) {
	overflow := func() (timeu.Time, bool) {
		st.overflow++
		return math.MaxInt64, false
	}
	one := func(timeu.Time) int64 { return 1 }
	busy, ok := mulAdd(blk, 1, task.WCET)
	if ok {
		busy, ok = refSum(busy, hp, one)
	}
	if !ok {
		return overflow()
	}
	if busy == 0 {
		return task.WCET, true
	}
	for iter := 0; ; iter++ {
		ceil := func(p timeu.Time) int64 { return timeu.CeilDiv(busy, p) }
		next, ok := mulAdd(blk, ceil(task.Period), task.WCET)
		if ok {
			next, ok = refSum(next, hp, ceil)
		}
		if !ok {
			return overflow()
		}
		if next == busy {
			break
		}
		busy = next
		if iter >= maxIterations {
			st.busyCap++
			break
		}
		if (busy-1)/task.Period >= 1<<20 {
			st.periodGuard++
			break
		}
	}
	var worst timeu.Time
	for k := int64(0); k < timeu.CeilDiv(busy, task.Period); k++ {
		base, ok := mulAdd(blk, k, task.WCET)
		w := base
		if ok {
			w, ok = refSum(base, hp, one)
		}
		if !ok {
			return overflow()
		}
		converged := false
		for iter := 0; iter < maxIterations; iter++ {
			st.iters++
			next, ok := refSum(base, hp, func(p timeu.Time) int64 { return timeu.FloorDiv(w, p) + 1 })
			if !ok {
				return overflow()
			}
			if next == w {
				converged = true
				break
			}
			w = next
			if w-timeu.Time(k)*task.Period > task.Period {
				break
			}
		}
		if !converged && w-timeu.Time(k)*task.Period <= task.Period {
			st.wCap++
		}
		r, ok := mulAdd(w-timeu.Time(k)*task.Period, 1, task.WCET)
		if !ok {
			return overflow()
		}
		worst = timeu.Max(worst, r)
		if !converged {
			return worst, false
		}
	}
	return worst, true
}

func refAnalyze(g *model.Graph, st *refStats) *Result {
	res := &Result{WCRT: make([]timeu.Time, g.NumTasks()), Schedulable: true}
	for i := 0; i < g.NumTasks(); i++ {
		id := model.TaskID(i)
		task := g.Task(id)
		if task.ECU == model.NoECU {
			continue
		}
		st.tasks++
		hp, blk := refInterferers(g, id)
		r, ok := refNPResponseTime(task, hp, blk, st)
		res.WCRT[i] = r
		if !ok || r > task.EffectiveDeadline() {
			res.Schedulable = false
			res.Unschedulable = append(res.Unschedulable, id)
			st.unsched++
		}
	}
	return res
}

// compareWithOracle checks Analyze against refAnalyze field by field,
// including the sched.fixedpoint.iterations the two runs add, and adds
// the oracle's counts to st.
func compareWithOracle(t *testing.T, label string, g *model.Graph, st *refStats) {
	t.Helper()
	before := fpIters.Load()
	got := Analyze(g, NonPreemptiveFP)
	gotIters := fpIters.Load() - before
	var ref refStats
	want := refAnalyze(g, &ref)
	for id := range want.WCRT {
		if got.WCRT[id] != want.WCRT[id] {
			t.Fatalf("%s: R(%s) = %v, oracle %v", label, g.Task(model.TaskID(id)).Name, got.WCRT[id], want.WCRT[id])
		}
	}
	if got.Schedulable != want.Schedulable || !slices.Equal(got.Unschedulable, want.Unschedulable) {
		t.Fatalf("%s: schedulable %v %v, oracle %v %v", label,
			got.Schedulable, got.Unschedulable, want.Schedulable, want.Unschedulable)
	}
	if gotIters != ref.iters {
		t.Fatalf("%s: %d fixed-point iterations, oracle %d", label, gotIters, ref.iters)
	}
	st.iters += ref.iters
	st.periodGuard += ref.periodGuard
	st.busyCap += ref.busyCap
	st.wCap += ref.wCap
	st.overflow += ref.overflow
	st.unsched += ref.unsched
	st.tasks += ref.tasks
}

// watersGraph draws one graph of the WATERS corpus: a GNM DAG over four
// ECUs with benchmark task parameters and rate-monotonic priorities.
func watersGraph(t *testing.T, rng *rand.Rand, n int) *model.Graph {
	t.Helper()
	g, err := randgraph.GNM(n, 2*n, randgraph.DefaultConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	waters.Populate(g, rng)
	return g
}

// overload multiplies every scheduled task's WCET by factor (capped at
// the period), so a corpus also holds unschedulable ECUs.
func overload(g *model.Graph, factor timeu.Time) {
	for i := range g.Tasks() {
		task := g.Task(model.TaskID(i))
		task.WCET = min(task.WCET*factor, task.Period)
		task.BCET = min(task.BCET, task.WCET)
	}
}

func TestAnalyzeMatchesOracleWaters(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var st refStats
	for trial := 0; trial < 100; trial++ {
		g := watersGraph(t, rng, 5+rng.Intn(30))
		overload(g, timeu.Time(1+trial%4))
		compareWithOracle(t, "waters", g, &st)
	}
	if st.unsched == 0 {
		t.Error("corpus never exercised the Unschedulable list")
	}
}

// TestAnalyzeMatchesOracleFleet runs the default fleet workload, built as
// the public GenerateFleet builds it with seed 1: ~2.1k tasks on zonal
// ECUs and a CAN bus.
func TestAnalyzeMatchesOracleFleet(t *testing.T) {
	g, _, err := randgraph.Fleet(randgraph.DefaultFleet())
	if err != nil {
		t.Fatal(err)
	}
	waters.PopulateBudget(g, rand.New(rand.NewSource(1)), 20*ms, 0.5)
	bus := can.Bus{Rate: can.Baud500k, Format: can.Standard, Payload: 8}
	if _, _, err := bus.Split(g, "can0"); err != nil {
		t.Fatal(err)
	}
	if g.NumTasks() < 2000 {
		t.Fatalf("fleet has %d tasks, want ≥ 2000", g.NumTasks())
	}
	compareWithOracle(t, "fleet", g, new(refStats))
}

// TestAnalyzeMatchesOracleHandBuilt covers what generated graphs never
// contain: priority ties (tied tasks block each other and never
// interfere), NoECU stimuli, an ECU without tasks, and an overloaded ECU
// whose capped WCRTs land in the Unschedulable list.
func TestAnalyzeMatchesOracleHandBuilt(t *testing.T) {
	g := model.NewGraph()
	tied := g.AddECU("tied", model.Compute)
	g.AddECU("empty", model.Compute)
	over := g.AddECU("over", model.Compute)
	src := g.AddTask(model.Task{Name: "stim", Period: 10 * ms, ECU: model.NoECU})
	for i, p := range []int{1, 0, 1, 2, 1} {
		w := timeu.Time(i+1) * ms / 2
		id := g.AddTask(model.Task{WCET: w, BCET: w, Period: 20 * ms, Prio: p, ECU: tied})
		if err := g.AddEdge(src, id); err != nil {
			t.Fatal(err)
		}
	}
	g.AddTask(model.Task{Name: "o1", WCET: 4 * ms, BCET: ms, Period: 5 * ms, Prio: 0, ECU: over})
	g.AddTask(model.Task{Name: "o2", WCET: 4 * ms, BCET: ms, Period: 10 * ms, Prio: 1, ECU: over})
	compareWithOracle(t, "hand-built", g, new(refStats))

	res := Analyze(g, NonPreemptiveFP)
	if res.R(src) != 0 {
		t.Errorf("R(stimulus) = %v, want 0", res.R(src))
	}
	// task1, task3 and task5 share priority 1 below task2. task1 is
	// blocked by its later peer task5 (2.5ms); task5 suffers no
	// interference from its earlier peers, only from task2 (1ms), and is
	// blocked by task4 (2ms).
	if got, want := res.R(1), 5*ms/2+ms+ms/2; got != want {
		t.Errorf("R(task1) = %v, want %v", got, want)
	}
	if got, want := res.R(5), 2*ms+ms+5*ms/2; got != want {
		t.Errorf("R(task5) = %v, want %v", got, want)
	}
	if res.Schedulable || !slices.Equal(res.Unschedulable, []model.TaskID{6, 7}) {
		t.Errorf("Unschedulable = %v, want the overloaded ECU's tasks [6 7]", res.Unschedulable)
	}

	// Random tie-heavy sets over three ECUs, some left empty.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		g := model.NewGraph()
		for e := 0; e < 3; e++ {
			g.AddECU("", model.Compute)
		}
		for i, n := 0, 1+rng.Intn(10); i < n; i++ {
			ecu := model.ECUID(rng.Intn(4) - 1)
			period := timeu.Time(2+rng.Intn(20)) * ms
			w := timeu.Time(rng.Intn(int(period/ms)/2+1)) * ms
			if ecu == model.NoECU {
				w = 0
			}
			g.AddTask(model.Task{WCET: w, BCET: w, Period: period, Prio: rng.Intn(3), ECU: ecu})
		}
		compareWithOracle(t, "ties", g, new(refStats))
	}
}

// randomECUs builds ecus ECUs of n tasks each. period(i) gives the i-th
// task's period; the WCETs split a utilization drawn from [0.2, 1.4) at
// random (at least 1 ns, at most the period), so a corpus holds
// overloaded ECUs too. Priorities are rate-monotonic on odd trials and a
// random permutation otherwise.
func randomECUs(rng *rand.Rand, trial, ecus, n int, period func(i int) timeu.Time) *model.Graph {
	g := model.NewGraph()
	for e := 0; e < ecus; e++ {
		ecu := g.AddECU("", model.Compute)
		u := 0.2 + 1.2*rng.Float64()
		weights := make([]float64, n)
		var total float64
		for i := range weights {
			weights[i] = rng.Float64()
			total += weights[i]
		}
		prio := rng.Perm(n)
		for i := 0; i < n; i++ {
			p := period(i)
			w := min(max(timeu.Time(u*weights[i]/total*float64(p)), 1), p)
			g.AddTask(model.Task{WCET: w, BCET: w, Period: p, Prio: prio[i], ECU: ecu})
		}
	}
	if trial%2 == 1 {
		AssignRateMonotonic(g)
	}
	return g
}

// distinctPeriods counts the periods of the tasks on one ECU.
func distinctPeriods(g *model.Graph, ecu model.ECUID) int {
	seen := map[timeu.Time]bool{}
	for _, id := range g.TasksOnECU(ecu) {
		seen[g.Task(id).Period] = true
	}
	return len(seen)
}

// TestAnalyzeMatchesOracleManyPeriods runs ECUs of 20–60 tasks over 20 or
// more distinct periods, far more period classes than the WATERS (8) and
// fleet (≤ 4) corpora hold.
func TestAnalyzeMatchesOracleManyPeriods(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var st refStats
	for trial := 0; trial < 60; trial++ {
		pool := make([]timeu.Time, 20+rng.Intn(20))
		for i := range pool {
			pool[i] = timeu.Time(i+1)*ms + timeu.Time(rng.Intn(1000))*timeu.Microsecond
		}
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		period := func(i int) timeu.Time {
			if i < 20 {
				return pool[i]
			}
			return pool[rng.Intn(len(pool))]
		}
		g := randomECUs(rng, trial, 1+rng.Intn(2), 20+rng.Intn(41), period)
		for e := range g.ECUs() {
			if d := distinctPeriods(g, model.ECUID(e)); d < 20 {
				t.Fatalf("trial %d: ECU %d has %d distinct periods, want ≥ 20", trial, e, d)
			}
		}
		compareWithOracle(t, "many-periods", g, &st)
	}
	if st.unsched == 0 || st.unsched == st.tasks {
		t.Errorf("%d of %d tasks unschedulable; the corpus must hold both verdicts", st.unsched, st.tasks)
	}
}

// TestAnalyzeMatchesOracleDistinctPeriods gives every task its own period,
// so each task's hp set has as many period classes as tasks.
func TestAnalyzeMatchesOracleDistinctPeriods(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var st refStats
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(39)
		base := timeu.Time(1+rng.Intn(5)) * ms
		step := timeu.Time(1+rng.Intn(997)) * timeu.Microsecond
		g := randomECUs(rng, trial, 1+rng.Intn(3), n, func(i int) timeu.Time { return base + timeu.Time(i)*step })
		for e := range g.ECUs() {
			if d := distinctPeriods(g, model.ECUID(e)); d != n {
				t.Fatalf("trial %d: ECU %d has %d distinct periods over %d tasks", trial, e, d, n)
			}
		}
		compareWithOracle(t, "distinct-periods", g, &st)
	}
	if st.unsched == 0 || st.unsched == st.tasks {
		t.Errorf("%d of %d tasks unschedulable; the corpus must hold both verdicts", st.unsched, st.tasks)
	}
}

// TestAnalyzeMatchesOracleGuards drives the recurrences into their
// guards: a busy period cut at 2^20 periods of the task, busy-period and
// w(q) iterations cut at maxIterations, and sums that leave int64.
func TestAnalyzeMatchesOracleGuards(t *testing.T) {
	task := func(g *model.Graph, ecu model.ECUID, w, p timeu.Time, prio int) {
		g.AddTask(model.Task{WCET: w, BCET: w, Period: p, Prio: prio, ECU: ecu})
	}
	var st refStats

	// A 1 ns task at utilization 1 under a 50% task: the busy period grows
	// by half each step until it spans 2^20 of the task's periods.
	g := model.NewGraph()
	e := g.AddECU("guard", model.Compute)
	task(g, e, 1, 2, 0)
	task(g, e, 1, 1, 1)
	compareWithOracle(t, "period-guard", g, &st)
	if st.periodGuard == 0 {
		t.Fatal("period-guard input never cut its busy period at 2^20 periods")
	}

	// A 1 s task under a 2 ns task at utilization 1: every step adds 2 ns,
	// so both the busy period and w(0) run into maxIterations.
	g = model.NewGraph()
	e = g.AddECU("cap", model.Compute)
	task(g, e, 2, 2, 0)
	task(g, e, 1, timeu.Second, 1)
	compareWithOracle(t, "iteration-cap", g, &st)
	if st.busyCap == 0 || st.wCap == 0 {
		t.Fatalf("iteration-cap input: busy cap %d, w(q) cap %d; want both hit", st.busyCap, st.wCap)
	}
	if res := Analyze(g, NonPreemptiveFP); !slices.Contains(res.Unschedulable, 1) {
		t.Errorf("Unschedulable = %v, want the capped task 1 listed", res.Unschedulable)
	}

	// Five tasks share a period of MaxInt64 at WCET 2^62, and every busy
	// period passes 2^63. The lowest task's one class sums to 2^64, which
	// a plain uint64 sum would wrap to 0, leaving it schedulable.
	g = model.NewGraph()
	e = g.AddECU("class-sum", model.Compute)
	for prio := 0; prio < 5; prio++ {
		task(g, e, 1<<62, math.MaxInt64, prio)
	}
	st = refStats{}
	compareWithOracle(t, "class-sum", g, &st)
	if st.overflow != 5 {
		t.Errorf("class-sum input: %d overflows, want all 5 tasks", st.overflow)
	}

	// Random nanosecond periods at up to 150% utilization, and random
	// periods near 2^62 ns whose sums leave int64.
	rng := rand.New(rand.NewSource(23))
	st = refStats{}
	for trial := 0; trial < 200; trial++ {
		huge := trial%2 == 1
		g := randomECUs(rng, trial, 1+rng.Intn(2), 1+rng.Intn(8), func(int) timeu.Time {
			if huge {
				return 1<<62 + timeu.Time(rng.Int63n(1<<62))
			}
			return timeu.Time(1 + rng.Intn(64))
		})
		compareWithOracle(t, "guards", g, &st)
	}
	if st.periodGuard == 0 || st.overflow == 0 {
		t.Errorf("random guard corpus: %d period guards, %d overflows; want both", st.periodGuard, st.overflow)
	}
}

// TestNPWrappedSumsUnschedulable pins a graph that Validate accepts but
// whose busy-period sums pass 2^63: four tasks of WCET 2^61 and period
// 2^62 (utilization 2). Only the top task fits; the others' sums do not
// fit in int64, so they are unschedulable with a saturated WCRT instead
// of a wrapped (zero or negative) one.
func TestNPWrappedSumsUnschedulable(t *testing.T) {
	g := model.NewGraph()
	ecu := g.AddECU("e", model.Compute)
	for prio := 0; prio < 4; prio++ {
		g.AddTask(model.Task{WCET: 1 << 61, BCET: 1 << 61, Period: 1 << 62, Prio: prio, ECU: ecu})
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	res := Analyze(g, NonPreemptiveFP)
	want := []timeu.Time{1 << 62, math.MaxInt64, math.MaxInt64, math.MaxInt64}
	if !slices.Equal(res.WCRT, want) {
		t.Errorf("WCRT = %v, want %v", res.WCRT, want)
	}
	if res.Schedulable || !slices.Equal(res.Unschedulable, []model.TaskID{1, 2, 3}) {
		t.Errorf("Unschedulable = %v, want [1 2 3]", res.Unschedulable)
	}
	compareWithOracle(t, "wrap", g, new(refStats))
}

// TestCheckedSumsMatchBig checks mulAdd and demand against math/big on
// operands around the int64 boundary: the value whenever it fits, and
// the overflow verdict always.
func TestCheckedSumsMatchBig(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	edge := func() int64 {
		switch rng.Intn(4) {
		case 0:
			return rng.Int63n(1 << 20)
		case 1:
			return math.MaxInt64 - rng.Int63n(1<<20)
		case 2:
			return 1<<(rng.Intn(62)+1) + rng.Int63n(3) - 1
		}
		return rng.Int63()
	}
	limit := big.NewInt(math.MaxInt64)
	check := func(label string, want *big.Int, got timeu.Time, ok bool) {
		t.Helper()
		if fits := want.Cmp(limit) <= 0; ok != fits || fits && int64(got) != want.Int64() {
			t.Fatalf("%s = %d (fits %v), want %v (fits %v)", label, got, ok, want, fits)
		}
	}
	for trial := 0; trial < 20000; trial++ {
		a, n, b := edge(), edge(), edge()
		want := new(big.Int).Mul(big.NewInt(n), big.NewInt(b))
		want.Add(want, big.NewInt(a))
		got, ok := mulAdd(timeu.Time(a), n, timeu.Time(b))
		check(fmt.Sprintf("mulAdd(%d, %d, %d)", a, n, b), want, got, ok)

		base, x := edge(), edge()
		hp := make([]class, rng.Intn(4))
		want.SetInt64(base)
		for i := range hp {
			p, w := uint64(max(edge(), 1)), uint64(edge())
			if i == 0 && rng.Intn(8) == 0 {
				w = 1 << 63 // a saturated class sum
			}
			hp[i] = class{p, w}
			term := new(big.Int).SetUint64(uint64(x)/p + 1)
			want.Add(want, term.Mul(term, new(big.Int).SetUint64(w)))
		}
		got, ok = demand(timeu.Time(base), timeu.Time(x), hp)
		check(fmt.Sprintf("demand(%d, %d, %v)", base, x, hp), want, got, ok)
	}
}
