package exp

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/backward"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/timeu"
)

// fig2Sim returns the paper's Fig. 2 graph, its analysis and sink, and
// a configuration simulating it runs times under exec.
func fig2Sim(t *testing.T, runs int, exec sim.ExecModel) (*model.Graph, *core.Analysis, model.TaskID, Config) {
	t.Helper()
	g := model.Fig2Graph()
	a, err := core.New(g)
	if err != nil {
		t.Fatal(err)
	}
	sinks := g.Sinks()
	if len(sinks) == 0 {
		t.Fatal("fig2 graph has no sink")
	}
	cfg := Config{
		Horizon:         2 * timeu.Second,
		Warmup:          200 * timeu.Millisecond,
		OffsetsPerGraph: runs,
		Exec:            exec,
	}
	return g, a, sinks[0], cfg
}

// TestSimulateMaxDisparityDeterministic pins the Sim column's rng
// discipline: identical rng streams give identical measured values,
// and the value never exceeds the S-diff bound (soundness on this
// fixture).
func TestSimulateMaxDisparityDeterministic(t *testing.T) {
	run := func() timeu.Time {
		g, a, sink, cfg := fig2Sim(t, 3, sim.ExtremesExec{P: 0.5})
		v, err := simulateMaxDisparity(context.Background(), cfg, nil, g, sink, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		sd, err := a.DisparityBound(sink, core.SDiff, 0)
		if err != nil {
			t.Fatal(err)
		}
		if v > sd.Bound {
			t.Fatalf("measured %v exceeds the S-diff bound %v", v, sd.Bound)
		}
		return v
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different values: %v vs %v", a, b)
	}
	if a <= 0 {
		t.Fatalf("observed disparity %v, want > 0", a)
	}
}

// TestSimulateLatenciesDeterministic checks the measured latency
// family: same seed → same values, the definitional orderings hold,
// and every observed value stays below its analytic bound on the
// fixture.
func TestSimulateLatenciesDeterministic(t *testing.T) {
	run := func() [4]timeu.Time {
		g, a, sink, cfg := fig2Sim(t, 3, sim.ExtremesExec{P: 0.5})
		vals, err := simulateLatencies(context.Background(), cfg, nil, g, sink, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		if vals[backward.LatencyMRDA] > vals[backward.LatencyMDA] {
			t.Errorf("sim MRDA %v > MDA %v", vals[backward.LatencyMRDA], vals[backward.LatencyMDA])
		}
		if vals[backward.LatencyMRRT] > vals[backward.LatencyMRT] {
			t.Errorf("sim MRRT %v > MRT %v", vals[backward.LatencyMRRT], vals[backward.LatencyMRT])
		}
		for _, l := range backward.Latencies() {
			tl, err := a.Latency(sink, l, 0)
			if err != nil {
				t.Fatal(err)
			}
			if vals[l] > tl.Bound {
				t.Errorf("observed %v %v exceeds analytic bound %v", l, vals[l], tl.Bound)
			}
			if vals[l] <= 0 {
				t.Errorf("observed %v = %v, want > 0", l, vals[l])
			}
		}
		return vals
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different values: %v vs %v", a, b)
	}
}

// TestSimulateCountsJumpOutcomes pins the jump-ahead accounting behind
// `disparity-exp -metrics` and the -explain record's jump_runs: every
// run of both simulation loops lands in exactly one of
// exp.sim.jump.engaged or exp.sim.jump.fallback.<code>, so a sweep that
// stayed slow says why. ExtremesExec draws random execution times,
// which makes jump-ahead ineligible with code "random-exec".
func TestSimulateCountsJumpOutcomes(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(Config, *model.Graph, model.TaskID, *rand.Rand) error
	}{
		{"simulateMaxDisparity", func(cfg Config, g *model.Graph, sink model.TaskID, rng *rand.Rand) error {
			_, err := simulateMaxDisparity(context.Background(), cfg, nil, g, sink, rng)
			return err
		}},
		{"simulateLatencies", func(cfg Config, g *model.Graph, sink model.TaskID, rng *rand.Rand) error {
			_, err := simulateLatencies(context.Background(), cfg, nil, g, sink, rng)
			return err
		}},
	} {
		g, _, sink, cfg := fig2Sim(t, 3, sim.ExtremesExec{P: 0.5})
		fallback := metrics.C("exp.sim.jump.fallback.random-exec").Load()
		engaged := metrics.C("exp.sim.jump.engaged").Load()
		if err := c.run(cfg, g, sink, rand.New(rand.NewSource(7))); err != nil {
			t.Fatal(err)
		}
		if got := metrics.C("exp.sim.jump.fallback.random-exec").Load() - fallback; got != 3 {
			t.Errorf("%s: fallback.random-exec delta = %d, want 3 (one per run)", c.name, got)
		}
		if got := metrics.C("exp.sim.jump.engaged").Load() - engaged; got != 0 {
			t.Errorf("%s: engaged delta = %d, want 0 under a random exec model", c.name, got)
		}
	}

	// A deterministic exec model on the periodic fig2 graph engages.
	g, _, sink, cfg := fig2Sim(t, 1, sim.WCETExec{})
	engaged := metrics.C("exp.sim.jump.engaged").Load()
	if _, err := simulateMaxDisparity(context.Background(), cfg, nil, g, sink, rand.New(rand.NewSource(7))); err != nil {
		t.Fatal(err)
	}
	if got := metrics.C("exp.sim.jump.engaged").Load() - engaged; got != 1 {
		t.Errorf("engaged delta = %d, want 1 under WCETExec", got)
	}
}

func TestSimulateMaxDisparityHonorsCancellation(t *testing.T) {
	g, _, sink, cfg := fig2Sim(t, 1, sim.WCETExec{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := simulateMaxDisparity(ctx, cfg, nil, g, sink, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("simulateMaxDisparity ignored a canceled context")
	}
}

func TestSimulateLatenciesHonorsCancellation(t *testing.T) {
	g, _, sink, cfg := fig2Sim(t, 1, sim.WCETExec{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := simulateLatencies(ctx, cfg, nil, g, sink, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("simulateLatencies ignored a canceled context")
	}
}
