package sim

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/timeu"
)

// runTwice runs the graph with jump-ahead armed and disarmed and
// returns both stats plus the armed run's JumpStats. cfg.Observers are
// used as given for the armed run; mk builds a fresh observer set per
// run so accumulated state never leaks between them.
func runTwice(t *testing.T, g *model.Graph, cfg Config, mk func() []Observer) (jump, full *Stats, js JumpStats, jumpObs, fullObs []Observer) {
	t.Helper()
	e, err := NewEngine(g)
	if err != nil {
		t.Fatal(err)
	}
	jumpObs = mk()
	cfg.DisableJumpAhead = false
	cfg.Observers = jumpObs
	jump, err = e.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	js = e.LastJump()
	fullObs = mk()
	cfg.DisableJumpAhead = true
	cfg.Observers = fullObs
	full, err = e.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.LastJump().Eligible || e.LastJump().Reason != "disabled by config" {
		t.Errorf("disabled run reports %+v", e.LastJump())
	}
	return jump, full, js, jumpObs, fullObs
}

func disparityObs(warm timeu.Time) func() []Observer {
	return func() []Observer { return []Observer{NewDisparityObserver(warm)} }
}

// observerSuite builds the disparity, backward and latency observers
// of the src → b flow, all with the same warm-up.
func observerSuite(src, b model.TaskID, warm timeu.Time) func() []Observer {
	return func() []Observer {
		return []Observer{
			NewDisparityObserver(warm),
			NewBackwardObserver(b, src, warm),
			NewLatencyObserver(b, []model.TaskID{src}, warm),
		}
	}
}

func checkIdentical(t *testing.T, g *model.Graph, jump, full *Stats, jumpObs, fullObs []Observer) {
	t.Helper()
	if !reflect.DeepEqual(jump, full) {
		t.Errorf("stats diverge:\n jump: %+v\n full: %+v", jump, full)
	}
	for i := range jumpObs {
		if jr, fr := observed(g, jumpObs[i]), observed(g, fullObs[i]); !reflect.DeepEqual(jr, fr) {
			t.Errorf("observer %d (%T) diverges:\n jump: %v\n full: %v", i, jumpObs[i], jr, fr)
		}
	}
}

// observed flattens every result an observer reports, with its
// presence flags, into one comparable slice.
func observed(g *model.Graph, obs Observer) []any {
	var out []any
	switch o := obs.(type) {
	case *DisparityObserver:
		for task := 0; task < g.NumTasks(); task++ {
			out = append(out, o.Max(model.TaskID(task)))
		}
	case *BackwardObserver:
		lo, hi, ok := o.Range()
		out = append(out, lo, hi, ok)
	case *LatencyObserver:
		for _, src := range o.Sources() {
			for _, get := range []func(model.TaskID) (timeu.Time, bool){
				o.MaxReducedAge, o.MaxAge, o.MaxReducedReaction, o.MaxReaction, o.MinFreshAge,
			} {
				v, ok := get(src)
				out = append(out, v, ok)
			}
		}
	}
	return out
}

func TestJumpAheadEngagesAndMatchesFull(t *testing.T) {
	g, _, _, _ := pipeline(t)
	cfg := Config{Horizon: 10 * 1000 * ms}
	jump, full, js, jo, fo := runTwice(t, g, cfg, disparityObs(40*ms))
	if !js.Eligible {
		t.Fatalf("not eligible: %s", js.Reason)
	}
	if !js.Engaged {
		t.Fatal("jump-ahead did not engage on a deterministic periodic workload")
	}
	if js.Hyperperiod != 20*ms {
		t.Errorf("hyperperiod = %v, want 20ms", js.Hyperperiod)
	}
	if js.Skipped < 1 || js.SkippedTime != timeu.Time(js.Skipped)*js.Cycle {
		t.Errorf("inconsistent jump stats %+v", js)
	}
	checkIdentical(t, g, jump, full, jo, fo)
}

func TestJumpAheadLETMatchesFull(t *testing.T) {
	g, _, _, _ := letPipeline(t)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Horizon: 5 * 1000 * ms, Exec: BCETExec{}}
	jump, full, js, jo, fo := runTwice(t, g, cfg, disparityObs(60*ms))
	if !js.Engaged {
		t.Fatalf("no jump on LET pipeline: %+v", js)
	}
	checkIdentical(t, g, jump, full, jo, fo)
}

func TestJumpAheadStaggeredOffsets(t *testing.T) {
	for name, offsets := range map[string][]timeu.Time{
		"zero":      {0, 0, 0},
		"staggered": {3 * ms, 7 * ms, 11 * ms},
	} {
		t.Run(name, func(t *testing.T) {
			g, _, _, _ := pipeline(t)
			cfg := Config{Horizon: 4 * 1000 * ms, Offsets: offsets}
			jump, full, js, jo, fo := runTwice(t, g, cfg, disparityObs(100*ms))
			if !js.Engaged {
				t.Fatalf("no jump with %s offsets: %+v", name, js)
			}
			checkIdentical(t, g, jump, full, jo, fo)
		})
	}
}

func TestJumpAheadSingleTask(t *testing.T) {
	g := model.NewGraph()
	ecu := g.AddECU("e", model.Compute)
	g.AddTask(model.Task{Name: "only", WCET: 2 * ms, BCET: 2 * ms, Period: 5 * ms, ECU: ecu})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Horizon: 1000 * ms}
	jump, full, js, jo, fo := runTwice(t, g, cfg, disparityObs(0))
	if !js.Engaged {
		t.Fatalf("no jump on single-task graph: %+v", js)
	}
	checkIdentical(t, g, jump, full, jo, fo)
}

func TestJumpAheadSporadicFallsBack(t *testing.T) {
	g := model.NewGraph()
	ecu := g.AddECU("e", model.Compute)
	src := g.AddTask(model.Task{Name: "src", Period: 10 * ms, ECU: model.NoECU})
	a := g.AddTask(model.Task{Name: "a", WCET: 2 * ms, BCET: 2 * ms,
		Period: 10 * ms, MaxPeriod: 15 * ms, ECU: ecu})
	if err := g.AddEdge(src, a); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(Config{Horizon: 1000 * ms, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	js := e.LastJump()
	if js.Eligible || js.Engaged {
		t.Fatalf("jump-ahead armed on a sporadic graph: %+v", js)
	}
	if !strings.Contains(js.Reason, "sporadic") {
		t.Errorf("reason %q does not name sporadic tasks", js.Reason)
	}
}

func TestJumpAheadRandomExecFallsBack(t *testing.T) {
	g, _, _, _ := pipeline(t)
	e, err := NewEngine(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, exec := range []ExecModel{UniformExec{}, ExtremesExec{P: 0.5}} {
		if _, err := e.Run(Config{Horizon: 1000 * ms, Exec: exec, Seed: 3}); err != nil {
			t.Fatal(err)
		}
		js := e.LastJump()
		if js.Eligible || js.Engaged {
			t.Fatalf("jump-ahead armed under %s: %+v", exec.Name(), js)
		}
		if !strings.Contains(js.Reason, "random execution times") {
			t.Errorf("reason %q does not name the exec model", js.Reason)
		}
	}
}

func TestJumpAheadForeignObserverFallsBack(t *testing.T) {
	g, _, _, _ := pipeline(t)
	e, err := NewEngine(g)
	if err != nil {
		t.Fatal(err)
	}
	obs := FuncObserver(func(*Job) {})
	if _, err := e.Run(Config{Horizon: 1000 * ms, Observers: []Observer{obs}}); err != nil {
		t.Fatal(err)
	}
	js := e.LastJump()
	if js.Eligible || js.Engaged {
		t.Fatalf("jump-ahead armed with a per-job callback observer: %+v", js)
	}
}

func TestJumpAheadHorizonShorterThanHyperperiod(t *testing.T) {
	g, _, _, _ := pipeline(t) // hyperperiod 20ms
	e, err := NewEngine(g)
	if err != nil {
		t.Fatal(err)
	}
	jump, err := e.Run(Config{Horizon: 15 * ms})
	if err != nil {
		t.Fatal(err)
	}
	js := e.LastJump()
	if js.Eligible || js.Engaged {
		t.Fatalf("jump-ahead armed with horizon < hyperperiod: %+v", js)
	}
	if !strings.Contains(js.Reason, "no finite hyperperiod within horizon") {
		t.Errorf("reason %q does not explain the horizon bound", js.Reason)
	}
	full, err := e.Run(Config{Horizon: 15 * ms, DisableJumpAhead: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(jump, full) {
		t.Errorf("short-horizon stats diverge:\n %+v\n %+v", jump, full)
	}
}

// TestJumpAheadObserverSuiteMatchesFull drives the full latency
// observer family through a jump and checks every metric against the
// full run.
func TestJumpAheadObserverSuiteMatchesFull(t *testing.T) {
	g, src, _, b := pipeline(t)
	cfg := Config{Horizon: 8 * 1000 * ms}
	jump, full, js, jo, fo := runTwice(t, g, cfg, observerSuite(src, b, 40*ms))
	if !js.Engaged {
		t.Fatalf("no jump: %+v", js)
	}
	checkIdentical(t, g, jump, full, jo, fo)
}

// TestJumpAheadTrailingCycle pins the one-jump rule on the pipeline
// (hyperperiod and cycle 20ms, first match at 40ms against 20ms): the
// jump skips every whole cycle before the horizon, one fewer when the
// matched cycle began before a warm-up, and none when that leaves
// nothing to skip.
func TestJumpAheadTrailingCycle(t *testing.T) {
	for _, tc := range []struct {
		name          string
		horizon, warm timeu.Time
		skipped       int64 // 0: no jump
	}{
		{"no-warmup", 2 * timeu.Second, 0, 98},
		{"warmup-after-match", 2 * timeu.Second, 500 * ms, 97},
		{"no-cycle-to-skip", 70 * ms, 70 * ms, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, src, _, b := pipeline(t)
			jump, full, js, jo, fo := runTwice(t, g, Config{Horizon: tc.horizon}, observerSuite(src, b, tc.warm))
			if tc.skipped == 0 {
				if js.Engaged || js.Code() != "cycle-exceeds-horizon" {
					t.Errorf("jump %+v (code %s), want cycle-exceeds-horizon", js, js.Code())
				}
			} else if !js.Engaged || js.Transient != 40*ms || js.Cycle != 20*ms ||
				js.Skipped != tc.skipped || js.SkippedTime != timeu.Time(tc.skipped)*js.Cycle {
				t.Errorf("jump %+v, want %d cycles of 20ms skipped after a 40ms transient", js, tc.skipped)
			}
			checkIdentical(t, g, jump, full, jo, fo)
		})
	}
}

// TestJumpAheadEngineReuse checks a jumped run leaves the engine clean
// for subsequent runs: jump, full, jump again, all identical.
func TestJumpAheadEngineReuse(t *testing.T) {
	g, _, _, _ := pipeline(t)
	e, err := NewEngine(g)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Horizon: 2 * 1000 * ms}
	var prev *Stats
	for i := 0; i < 3; i++ {
		cfg.DisableJumpAhead = i == 1
		stats, err := e.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && !reflect.DeepEqual(stats, prev) {
			t.Errorf("run %d diverges:\n %+v\n %+v", i, stats, prev)
		}
		if want := i != 1; e.LastJump().Engaged != want {
			t.Errorf("run %d: Engaged = %v, want %v", i, e.LastJump().Engaged, want)
		}
		prev = stats
	}
}
