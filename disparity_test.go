package disparity_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	disparity "repro"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/trace/span"
)

const ms = disparity.Millisecond

// buildFusion constructs the camera/LiDAR fusion shape used across the
// public API tests: two stimuli feeding per-sensor processing tasks that
// join at a fusion task.
func buildFusion(t *testing.T) (*disparity.Graph, disparity.TaskID) {
	t.Helper()
	g := disparity.NewGraph()
	ecu := g.AddECU("ecu0", disparity.Compute)
	cam := g.AddTask(disparity.Task{Name: "camera", Period: 33 * ms, ECU: disparity.NoECU})
	lid := g.AddTask(disparity.Task{Name: "lidar", Period: 100 * ms, ECU: disparity.NoECU})
	imgProc := g.AddTask(disparity.Task{Name: "img_proc", WCET: 5 * ms, BCET: 2 * ms, Period: 33 * ms, Prio: 0, ECU: ecu})
	cloudProc := g.AddTask(disparity.Task{Name: "cloud_proc", WCET: 10 * ms, BCET: 4 * ms, Period: 100 * ms, Prio: 1, ECU: ecu})
	fusion := g.AddTask(disparity.Task{Name: "fusion", WCET: 8 * ms, BCET: 3 * ms, Period: 100 * ms, Prio: 2, ECU: ecu})
	for _, e := range [][2]disparity.TaskID{{cam, imgProc}, {lid, cloudProc}, {imgProc, fusion}, {cloudProc, fusion}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g, fusion
}

func TestAnalyzeAndDisparity(t *testing.T) {
	g, fusion := buildFusion(t)
	a, err := disparity.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := a.Disparity(fusion, disparity.PDiff, 0)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := a.Disparity(fusion, disparity.SDiff, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pd.Bound <= 0 || sd.Bound <= 0 {
		t.Errorf("bounds = %v / %v, want positive", pd.Bound, sd.Bound)
	}
	if len(pd.Pairs) != 1 {
		t.Errorf("fusion has %d chain pairs, want 1", len(pd.Pairs))
	}
}

func TestAnalyzeRejectsInvalidGraph(t *testing.T) {
	g := disparity.NewGraph()
	g.AddTask(disparity.Task{Name: "bad", Period: 0})
	if _, err := disparity.Analyze(g); err == nil {
		t.Error("invalid graph accepted")
	}
}

func TestSimulateAgainstBounds(t *testing.T) {
	g, fusion := buildFusion(t)
	a, err := disparity.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := a.Disparity(fusion, disparity.SDiff, 0)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 3; seed++ {
		disparity.RandomOffsets(g, seed)
		res, err := disparity.Simulate(g, disparity.SimConfig{
			Horizon: 3 * disparity.Second,
			Warmup:  500 * ms,
			Exec:    disparity.ExecExtremes,
			Seed:    seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Overruns != 0 {
			t.Errorf("seed %d: %d overruns on a schedulable system", seed, res.Overruns)
		}
		if got := res.MaxDisparity[fusion]; got > sd.Bound {
			t.Errorf("seed %d: simulated disparity %v exceeds S-diff %v", seed, got, sd.Bound)
		}
		if res.Jobs == 0 {
			t.Error("no jobs simulated")
		}
	}
}

func TestSimulateValidation(t *testing.T) {
	g, _ := buildFusion(t)
	if _, err := disparity.Simulate(g, disparity.SimConfig{Horizon: 0}); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, _, err := disparity.MeasureBackward(g, 0, 1, disparity.SimConfig{Horizon: 0}); err == nil {
		t.Error("zero horizon accepted by MeasureBackward")
	}
}

func TestMeasureBackwardWithinBounds(t *testing.T) {
	g, fusion := buildFusion(t)
	cam, _ := g.TaskByName("camera")
	imgProc, _ := g.TaskByName("img_proc")
	chain := disparity.Chain{cam.ID, imgProc.ID, fusion}
	wcbt, bcbt, err := disparity.BackwardBounds(g, chain)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, err := disparity.MeasureBackward(g, fusion, cam.ID, disparity.SimConfig{
		Horizon: 3 * disparity.Second,
		Warmup:  500 * ms,
		Exec:    disparity.ExecUniform,
		Seed:    42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if lo < bcbt || hi > wcbt {
		t.Errorf("observed backward [%v, %v] outside analytical [%v, %v]", lo, hi, bcbt, wcbt)
	}
}

func TestMeasureBackwardNoData(t *testing.T) {
	g, fusion := buildFusion(t)
	cam, _ := g.TaskByName("camera")
	// Swapped roles: fusion data never reaches the camera.
	if _, _, err := disparity.MeasureBackward(g, cam.ID, fusion, disparity.SimConfig{
		Horizon: 200 * ms,
	}); err == nil {
		t.Error("expected an error when no data flows")
	}
}

// TestMeasureBackwardTwoChains drives MeasureBackward on a generated
// Fig. 6(c) two-chain graph: the observed backward range from chain λ's
// source to the shared sink lies inside λ's analytical [ℬ, 𝒲], and the
// engine sees the whole SimConfig — Trace set records a sim.run span.
func TestMeasureBackwardTwoChains(t *testing.T) {
	g, la, _, err := disparity.GenerateTwoChains(3, disparity.GenConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	wcbt, bcbt, err := disparity.BackwardBounds(g, la)
	if err != nil {
		t.Fatal(err)
	}
	tr := span.New()
	lo, hi, err := disparity.MeasureBackward(g, la.Tail(), la[0], disparity.SimConfig{
		Horizon: 10 * disparity.Second,
		Warmup:  disparity.Second,
		Exec:    disparity.ExecUniform,
		Seed:    42,
		Trace:   tr.Track("sim"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if lo < bcbt || hi > wcbt {
		t.Errorf("observed backward [%v, %v] outside analytical [%v, %v]", lo, hi, bcbt, wcbt)
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"name":"sim.run"`) {
		t.Errorf("MeasureBackward with Trace set recorded no sim.run span:\n%s", buf.String())
	}
}

func TestBackwardBoundsValidation(t *testing.T) {
	g, _ := buildFusion(t)
	if _, _, err := disparity.BackwardBounds(g, disparity.Chain{0, 4}); err == nil {
		t.Error("non-path chain accepted")
	}
}

func TestOptimizeViaPublicAPI(t *testing.T) {
	g, la, nu, err := disparity.GenerateTwoChains(4, disparity.GenConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	a, err := disparity.Analyze(g)
	if err != nil {
		t.Skip("generated workload unschedulable; generator retries live in the exp harness")
	}
	plan, err := a.Optimize(la, nu)
	if err != nil {
		t.Fatal(err)
	}
	if plan.After > plan.Before {
		t.Errorf("optimization worsened bound: %v -> %v", plan.Before, plan.After)
	}
	buffered := g.Clone()
	if err := plan.Apply(buffered); err != nil {
		t.Fatal(err)
	}
	if buffered.Buffer(plan.Edge.Src, plan.Edge.Dst) != plan.Cap {
		t.Error("plan not applied")
	}
}

func TestGenerators(t *testing.T) {
	g, err := disparity.GenerateGNM(12, 24, disparity.GenConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumTasks() != 12 {
		t.Errorf("tasks = %d", g.NumTasks())
	}

	lg, err := disparity.GenerateLayered([]int{3, 3, 2}, 2, disparity.GenConfig{Seed: 6, ECUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if lg.NumECUs() != 2 {
		t.Errorf("ECUs = %d, want 2", lg.NumECUs())
	}

	if _, err := disparity.GenerateGNM(1, 1, disparity.GenConfig{}); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := disparity.GenerateLayered(nil, 1, disparity.GenConfig{}); err == nil {
		t.Error("empty layers accepted")
	}
	if _, _, _, err := disparity.GenerateTwoChains(0, disparity.GenConfig{}); err == nil {
		t.Error("chainLen 0 accepted")
	}
}

func TestGraphJSONRoundTripViaPublicAPI(t *testing.T) {
	g, _ := buildFusion(t)
	var buf strings.Builder
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := disparity.ReadGraph(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumTasks() != g.NumTasks() {
		t.Error("round trip lost tasks")
	}
}

func TestWCRTAndPriorities(t *testing.T) {
	g, _ := buildFusion(t)
	bounds, ok := disparity.WCRT(g)
	if !ok {
		t.Fatal("fusion fixture should be schedulable")
	}
	if len(bounds) != g.NumTasks() {
		t.Fatalf("bounds for %d tasks, want %d", len(bounds), g.NumTasks())
	}
	imgProc, _ := g.TaskByName("img_proc")
	if bounds[imgProc.ID] < imgProc.WCET {
		t.Error("WCRT below WCET")
	}
	disparity.AssignRateMonotonic(g)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParseTime(t *testing.T) {
	d, err := disparity.ParseTime("5ms")
	if err != nil || d != 5*ms {
		t.Errorf("ParseTime = %v, %v", d, err)
	}
}

func TestEnumerateChainsPublic(t *testing.T) {
	g, fusion := buildFusion(t)
	cs, err := disparity.EnumerateChains(g, fusion, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 {
		t.Errorf("chains = %d, want 2", len(cs))
	}
}

func TestEndToEndBounds(t *testing.T) {
	g, fusion := buildFusion(t)
	cam, _ := g.TaskByName("camera")
	imgProc, _ := g.TaskByName("img_proc")
	chain := disparity.Chain{cam.ID, imgProc.ID, fusion}
	e2e, err := disparity.EndToEndBounds(g, chain)
	if err != nil {
		t.Fatal(err)
	}
	if e2e.MinDataAge > e2e.MaxDataAge {
		t.Errorf("age bounds inverted: %+v", e2e)
	}
	if e2e.MaxDataAge > e2e.Davare || e2e.MaxReaction > e2e.Davare {
		t.Errorf("refined bounds above the Davare baseline: %+v", e2e)
	}
	if _, err := disparity.EndToEndBounds(g, disparity.Chain{cam.ID, fusion}); err == nil {
		t.Error("non-path chain accepted")
	}
}

func TestOptimizeOffsetsPublic(t *testing.T) {
	g, fusion := buildFusion(t)
	// All-LET version for exact evaluation.
	for i := 0; i < g.NumTasks(); i++ {
		g.Task(disparity.TaskID(i)).Sem = disparity.LET
	}
	g.Task(0).Offset = 13 * ms
	res, err := disparity.OptimizeOffsets(g, fusion, disparity.OffsetOptConfig{Steps: 4, Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.After > res.Before {
		t.Errorf("offset optimization regressed: %v -> %v", res.Before, res.After)
	}
	if len(res.Offsets) != g.NumTasks() {
		t.Errorf("offsets for %d tasks, want %d", len(res.Offsets), g.NumTasks())
	}
}

func TestLETViaPublicAPI(t *testing.T) {
	g, fusion := buildFusion(t)
	for i := 0; i < g.NumTasks(); i++ {
		g.Task(disparity.TaskID(i)).Sem = disparity.LET
	}
	a, err := disparity.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	td, err := a.Disparity(fusion, disparity.SDiff, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := disparity.Simulate(g, disparity.SimConfig{Horizon: 2 * disparity.Second, Warmup: disparity.Second})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.MaxDisparity[fusion]; got > td.Bound {
		t.Errorf("LET sim %v above bound %v", got, td.Bound)
	}
	// Mixed semantics rejected.
	g.Task(fusion).Sem = disparity.Implicit
	if _, err := disparity.Analyze(g); err == nil {
		t.Error("mixed-semantics graph accepted")
	}
}

func TestCANBusViaPublicAPI(t *testing.T) {
	bus := disparity.CANBus{Rate: disparity.Baud1M, Format: disparity.CANExtended, Payload: 4}
	best, worst := bus.FrameTimes()
	if best <= 0 || worst < best {
		t.Errorf("frame times incoherent: %v / %v", best, worst)
	}
}

// Guard: the exported aliases must reference the same types as the
// internal packages (compile-time check by assignment).
var _ disparity.TaskID = model.TaskID(0)

func TestExactLETDisparityPublic(t *testing.T) {
	g, fusion := buildFusion(t)
	for i := 0; i < g.NumTasks(); i++ {
		g.Task(disparity.TaskID(i)).Sem = disparity.LET
	}
	exact, err := disparity.ExactLETDisparity(g, fusion)
	if err != nil {
		t.Fatal(err)
	}
	a, err := disparity.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	td, err := a.Disparity(fusion, disparity.SDiff, 0)
	if err != nil {
		t.Fatal(err)
	}
	if exact > td.Bound {
		t.Errorf("exact %v above the offset-oblivious bound %v", exact, td.Bound)
	}
	// Non-LET graphs rejected.
	imp, f2 := buildFusion(t)
	if _, err := disparity.ExactLETDisparity(imp, f2); err == nil {
		t.Error("implicit graph accepted")
	}
}

func TestGenerateAutomotive(t *testing.T) {
	g, fusion, err := disparity.GenerateAutomotive(disparity.AutomotiveConfig{}, disparity.GenConfig{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Predecessors(fusion)) != 3 {
		t.Errorf("fusion inputs = %d, want 3", len(g.Predecessors(fusion)))
	}
	if _, _, err := disparity.GenerateAutomotive(disparity.AutomotiveConfig{Sensors: 1, ProcDepth: 1}, disparity.GenConfig{}); err == nil {
		t.Error("bad config accepted")
	}
}

func TestGenerateFleet(t *testing.T) {
	cfg := disparity.FleetConfig{Zones: 2, ECUsPerZone: 2, PipesPerECU: 3, ProcDepth: 2, TailLen: 1}
	g, fusion, err := disparity.GenerateFleet(cfg, disparity.GenConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Tasks = topology + one bus message per cross-ECU edge: an
	// aggregator→gateway hop for each non-gateway ECU plus every
	// gateway→fusion hop.
	msgs := cfg.Zones*(cfg.ECUsPerZone-1) + cfg.Zones
	if got, want := g.NumTasks(), cfg.NumTasks()+msgs; got != want {
		t.Errorf("NumTasks = %d, want %d (+%d bus messages)", got, want, msgs)
	}
	// Budgeted WCETs make the graph schedulable by construction.
	if res := sched.Analyze(g, sched.NonPreemptiveFP); !res.Schedulable {
		t.Errorf("budget-populated fleet graph not NP-FP schedulable: %+v", res)
	}
	a, err := disparity.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	td, err := a.DisparityBound(fusion, disparity.SDiff, 0)
	if err != nil {
		t.Fatal(err)
	}
	nc := cfg.NumChains()
	if want := nc * (nc - 1) / 2; td.NumPairs != want {
		t.Errorf("NumPairs = %d, want %d (%d pipelines)", td.NumPairs, want, nc)
	}
	if td.Bound <= 0 {
		t.Errorf("fleet disparity bound = %v, want > 0", td.Bound)
	}
	if _, _, err := disparity.GenerateFleet(disparity.FleetConfig{Zones: 1}, disparity.GenConfig{}); err == nil {
		t.Error("bad config accepted")
	}
}

func TestGenerateFleetDefaultScale(t *testing.T) {
	if testing.Short() {
		t.Skip("2000-task generation in -short mode")
	}
	g, fusion, err := disparity.GenerateFleet(disparity.FleetConfig{}, disparity.GenConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTasks() < 2000 {
		t.Errorf("default fleet has %d tasks, want ≥ 2000", g.NumTasks())
	}
	if res := sched.Analyze(g, sched.NonPreemptiveFP); !res.Schedulable {
		t.Error("default fleet graph not NP-FP schedulable")
	}
	a, err := disparity.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	td, err := a.DisparityBound(fusion, disparity.SDiff, 0)
	if err != nil {
		t.Fatal(err)
	}
	if td.Truncated || td.Bound <= 0 {
		t.Errorf("default fleet: bound %v truncated=%v", td.Bound, td.Truncated)
	}
}

func TestThresholdAndTopologicalPublic(t *testing.T) {
	g, fusion := buildFusion(t)
	if err := disparity.AssignTopological(g); err != nil {
		t.Fatal(err)
	}
	a, err := disparity.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.CheckThreshold(fusion, disparity.Second, disparity.SDiff, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Errorf("1s threshold should hold: %+v", rep)
	}
	rep2, err := a.CheckThreshold(fusion, disparity.Millisecond, disparity.SDiff, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.OK || len(rep2.Violations) == 0 {
		t.Errorf("1ms threshold should be violated with details: %+v", rep2)
	}
}

// TestShippedSampleGraphs guards the JSON format: the graphs shipped
// under examples/graphs must keep loading and analyzing.
func TestShippedSampleGraphs(t *testing.T) {
	for _, name := range []string{"automotive.json", "gnm15.json", "twochains.json"} {
		f, err := os.Open(filepath.Join("examples", "graphs", name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g, err := disparity.ReadGraph(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		a, err := disparity.Analyze(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sinks := g.Sinks()
		if len(sinks) != 1 {
			t.Fatalf("%s: %d sinks", name, len(sinks))
		}
		if _, err := a.Disparity(sinks[0], disparity.SDiff, 0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
