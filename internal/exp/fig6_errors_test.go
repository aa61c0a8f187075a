package exp

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/sim"
	"repro/internal/timeu"
)

func tableText(t *testing.T, tbl *Table) string {
	t.Helper()
	var sb strings.Builder
	if err := tbl.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func errTestConfig() Config {
	cfg := Defaults()
	cfg.Points = []int{6, 7}
	cfg.GraphsPerPoint = 6
	cfg.OffsetsPerGraph = 1
	cfg.Horizon = 50 * timeu.Millisecond
	cfg.Warmup = 0
	cfg.TailLen = 0
	cfg.Exec = sim.WCETExec{}
	cfg.Workers = 2
	return cfg
}

// TestSweepPropagatesGraphErrors is the regression test for the old
// worker loops, which ran each graph in a bare goroutine and dropped
// failures on the floor (a failed graph silently became ok=false and
// vanished from the averages). A failure injected mid-sweep must now
// abort the sweep and carry the graph's identity.
func TestSweepPropagatesGraphErrors(t *testing.T) {
	injected := errors.New("injected graph failure")
	failGraphHook = func(point, gi int) error {
		if point == 0 && gi == 3 {
			return injected
		}
		return nil
	}
	defer func() { failGraphHook = nil }()

	for name, run := range map[string]func(Config) error{
		"fig6ab": func(cfg Config) error { _, err := Fig6a(cfg); return err },
		"fig6cd": func(cfg Config) error { _, _, err := Fig6cd(cfg); return err },
		"bounds": func(cfg Config) error { _, err := BoundsSweep(cfg); return err },
	} {
		err := run(errTestConfig())
		if !errors.Is(err, injected) {
			t.Errorf("%s: error %v does not wrap the injected graph failure", name, err)
		}
		if err != nil && !strings.Contains(err.Error(), "graph 3") {
			t.Errorf("%s: error %q does not identify the failing graph", name, err)
		}
	}
}

// TestSweepCancelsAfterError checks that a failing graph stops the
// remaining jobs of its point instead of letting them run to completion.
func TestSweepCancelsAfterError(t *testing.T) {
	injected := errors.New("boom")
	var calls atomic.Int64
	failGraphHook = func(point, gi int) error {
		calls.Add(1)
		if point == 0 && gi == 0 {
			return injected
		}
		return nil
	}
	defer func() { failGraphHook = nil }()

	cfg := errTestConfig()
	cfg.GraphsPerPoint = 32
	cfg.Workers = 1 // deterministic: job 0 fails before any other starts
	if _, err := Fig6a(cfg); !errors.Is(err, injected) {
		t.Fatalf("Fig6a error = %v, want the injected failure", err)
	}
	// With one worker, job 0's failure cancels the context before job 1
	// is picked up; at most the in-flight dispatch slips through.
	if n := calls.Load(); n > 2 {
		t.Errorf("%d graphs evaluated after mid-sweep failure, want <= 2", n)
	}
}
