package methods

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/backward"
	"repro/internal/sim"
	"repro/internal/timeu"
)

// TestLatencySimDeterministic checks the measured family: same seed →
// same values, the definitional orderings hold, and every observed
// value stays below its analytic bound on the fixture.
func TestLatencySimDeterministic(t *testing.T) {
	ctx := context.Background()
	run := func() LatencyValues {
		g, ec, sink := fig2Context(t)
		sec := &Context{
			Horizon: 2 * timeu.Second,
			Warmup:  200 * timeu.Millisecond,
			Runs:    3,
			Exec:    sim.ExtremesExec{P: 0.5},
			RNG:     rand.New(rand.NewSource(7)),
		}
		vals, err := SimLatencies(ctx, sec, g, sink)
		if err != nil {
			t.Fatal(err)
		}
		if vals.Get(backward.LatencyMRDA) > vals.Get(backward.LatencyMDA) {
			t.Errorf("sim MRDA %v > MDA %v", vals.Get(backward.LatencyMRDA), vals.Get(backward.LatencyMDA))
		}
		if vals.Get(backward.LatencyMRRT) > vals.Get(backward.LatencyMRT) {
			t.Errorf("sim MRRT %v > MRT %v", vals.Get(backward.LatencyMRRT), vals.Get(backward.LatencyMRT))
		}
		for _, l := range backward.Latencies() {
			tl, err := ec.Analysis.Latency(sink, l, ec.MaxChains)
			if err != nil {
				t.Fatal(err)
			}
			if vals.Get(l) > tl.Bound {
				t.Errorf("observed %v %v exceeds analytic bound %v", l, vals.Get(l), tl.Bound)
			}
			if vals.Get(l) <= 0 {
				t.Errorf("observed %v = %v, want > 0", l, vals.Get(l))
			}
		}
		return vals
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different values: %v vs %v", a, b)
	}
}

func TestLatencySimHonorsCancellation(t *testing.T) {
	g, _, sink := fig2Context(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sec := &Context{
		Horizon: timeu.Second,
		Runs:    1,
		Exec:    sim.WCETExec{},
		RNG:     rand.New(rand.NewSource(1)),
	}
	if _, err := SimLatencies(ctx, sec, g, sink); err == nil {
		t.Fatal("SimLatencies ignored a canceled context")
	}
}
