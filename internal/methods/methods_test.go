package methods

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/timeu"
)

func fig2Context(t *testing.T) (*model.Graph, *Context, model.TaskID) {
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
	return g, &Context{Analysis: a, MaxChains: 1 << 14, GreedyRounds: 8}, sinks[0]
}

// TestBoundsOrder pins the report rows: the plain bounds in row order.
// fig2_report.golden depends on this being exactly [P-diff, S-diff].
func TestBoundsOrder(t *testing.T) {
	bounds := Bounds()
	if len(bounds) != 2 || bounds[0] != PDiff || bounds[1] != SDiff {
		t.Fatalf("Bounds() = %v, want [P-diff S-diff]", Names(bounds...))
	}
}

func TestNamesAndRefs(t *testing.T) {
	cases := []struct {
		m         Method
		name, ref string
	}{
		{PDiff, "P-diff", "Theorem 1"},
		{SDiff, "S-diff", "Theorem 2"},
		{SDiffB, "S-diff-B", "Algorithm 1"},
		{Sim, "Sim", ""},
	}
	for _, c := range cases {
		if c.m.Name() != c.name {
			t.Errorf("Name() = %q, want %q", c.m.Name(), c.name)
		}
		if c.m.Ref() != c.ref {
			t.Errorf("%s: Ref() = %q, want %q", c.name, c.m.Ref(), c.ref)
		}
	}
}

// TestAnalyticEvalMatchesCore checks each analytic method routes to the
// core call behind it, and CoreMethod names that call's selector.
func TestAnalyticEvalMatchesCore(t *testing.T) {
	g, ec, sink := fig2Context(t)
	ctx := context.Background()

	for _, c := range []struct {
		m    Method
		want core.Method
	}{{PDiff, core.PDiff}, {SDiff, core.SDiff}} {
		m := c.m
		method, ok := CoreMethod(m)
		if !ok || method != c.want {
			t.Fatalf("CoreMethod(%s) = %v, %v; want %v", m.Name(), method, ok, c.want)
		}
		td, err := ec.Analysis.Disparity(sink, method, ec.MaxChains)
		if err != nil {
			t.Fatal(err)
		}

		// Default (sweep) mode: bound-only evaluation — same Bound, the
		// argmax pair as the only materialized detail.
		r, err := m.Eval(ctx, ec, g, sink)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if r.Bound != td.Bound {
			t.Errorf("%s: Bound = %v, core says %v", m.Name(), r.Bound, td.Bound)
		}
		if r.Detail == nil || r.Detail.NumPairs != len(td.Pairs) {
			t.Errorf("%s: Detail missing or wrong NumPairs", m.Name())
		} else if len(td.Pairs) > 0 {
			if len(r.Detail.Pairs) != 1 || r.Detail.Pairs[0].Bound != td.Pairs[td.ArgMax].Bound {
				t.Errorf("%s: bound-only detail does not carry the argmax pair", m.Name())
			}
		}

		// FullDetail mode: the complete per-pair breakdown.
		ec.FullDetail = true
		r, err = m.Eval(ctx, ec, g, sink)
		ec.FullDetail = false
		if err != nil {
			t.Fatalf("%s (full): %v", m.Name(), err)
		}
		if r.Bound != td.Bound {
			t.Errorf("%s (full): Bound = %v, core says %v", m.Name(), r.Bound, td.Bound)
		}
		if r.Detail == nil || len(r.Detail.Pairs) != len(td.Pairs) {
			t.Errorf("%s (full): Detail missing or wrong pair count", m.Name())
		}
	}

	for _, m := range []Method{SDiffB, Sim} {
		if _, ok := CoreMethod(m); ok {
			t.Errorf("CoreMethod(%s) reported a plain bound", m.Name())
		}
	}
	r, err := SDiffB.Eval(ctx, ec, g, sink)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := ec.Analysis.OptimizeTaskGreedy(sink, ec.MaxChains, ec.GreedyRounds)
	if err != nil {
		t.Fatal(err)
	}
	if r.Bound != greedy.After || r.Greedy == nil {
		t.Errorf("S-diff-B: Bound = %v Greedy = %v, core says %v", r.Bound, r.Greedy, greedy.After)
	}
	sd, err := SDiff.Eval(ctx, ec, g, sink)
	if err != nil {
		t.Fatal(err)
	}
	if r.Bound > sd.Bound {
		t.Errorf("S-diff-B bound %v exceeds the unbuffered S-diff %v", r.Bound, sd.Bound)
	}
}

// TestSimEvalDeterministic pins the simulation method's rng discipline:
// identical Context streams give identical measured values, and the
// value never exceeds the S-diff bound (soundness on this fixture).
func TestSimEvalDeterministic(t *testing.T) {
	ctx := context.Background()
	run := func() timeu.Time {
		g, ec, sink := fig2Context(t)
		sec := &Context{
			Horizon: 2 * timeu.Second,
			Warmup:  200 * timeu.Millisecond,
			Runs:    3,
			Exec:    sim.ExtremesExec{P: 0.5},
			RNG:     rand.New(rand.NewSource(7)),
		}
		r, err := Sim.Eval(ctx, sec, g, sink)
		if err != nil {
			t.Fatal(err)
		}
		sd, err := SDiff.Eval(ctx, ec, g, sink)
		if err != nil {
			t.Fatal(err)
		}
		if r.Bound > sd.Bound {
			t.Fatalf("measured %v exceeds the S-diff bound %v", r.Bound, sd.Bound)
		}
		return r.Bound
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different values: %v vs %v", a, b)
	}
	if a <= 0 {
		t.Fatalf("observed disparity %v, want > 0", a)
	}
}

// TestSimEvalCountsJumpOutcomes pins the jump-ahead accounting behind
// `disparity-exp -metrics` and the -explain record's jump_runs: every
// run of Sim.Eval and of SimLatencies lands in exactly one of
// exp.sim.jump.engaged or exp.sim.jump.fallback.<code>, so a sweep that
// stayed slow says why. ExtremesExec draws random execution times,
// which makes jump-ahead ineligible with code "random-exec".
func TestSimEvalCountsJumpOutcomes(t *testing.T) {
	g, _, sink := fig2Context(t)
	for _, c := range []struct {
		name string
		eval func(*Context) error
	}{
		{"Sim.Eval", func(ec *Context) error {
			_, err := Sim.Eval(context.Background(), ec, g, sink)
			return err
		}},
		{"SimLatencies", func(ec *Context) error {
			_, err := SimLatencies(context.Background(), ec, g, sink)
			return err
		}},
	} {
		sec := &Context{
			Horizon: 2 * timeu.Second,
			Warmup:  200 * timeu.Millisecond,
			Runs:    3,
			Exec:    sim.ExtremesExec{P: 0.5},
			RNG:     rand.New(rand.NewSource(7)),
		}
		fallback := metrics.C("exp.sim.jump.fallback.random-exec").Load()
		engaged := metrics.C("exp.sim.jump.engaged").Load()
		if err := c.eval(sec); err != nil {
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
	sec := &Context{
		Horizon: 2 * timeu.Second,
		Warmup:  200 * timeu.Millisecond,
		Runs:    1,
		Exec:    sim.WCETExec{},
		RNG:     rand.New(rand.NewSource(7)),
	}
	engaged := metrics.C("exp.sim.jump.engaged").Load()
	if _, err := Sim.Eval(context.Background(), sec, g, sink); err != nil {
		t.Fatal(err)
	}
	if got := metrics.C("exp.sim.jump.engaged").Load() - engaged; got != 1 {
		t.Errorf("engaged delta = %d, want 1 under WCETExec", got)
	}
}

func TestSimEvalHonorsCancellation(t *testing.T) {
	g, _, sink := fig2Context(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sec := &Context{
		Horizon: timeu.Second,
		Runs:    1,
		Exec:    sim.WCETExec{},
		RNG:     rand.New(rand.NewSource(1)),
	}
	if _, err := Sim.Eval(ctx, sec, g, sink); err == nil {
		t.Fatal("Eval ignored a canceled context")
	}
}
