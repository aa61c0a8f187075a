package main

import (
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/explain"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/trace"
)

func writeFixture(t *testing.T) string {
	t.Helper()
	g := model.Fig2Graph()
	path := filepath.Join(t.TempDir(), "g.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := g.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunSimWithTrace(t *testing.T) {
	path := writeFixture(t)
	tracePath := filepath.Join(filepath.Dir(path), "trace.csv")
	err := run([]string{
		"-graph", path, "-horizon", "500ms", "-warmup", "100ms",
		"-exec", "uniform", "-random-offsets", "-jobtrace", tracePath,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := trace.ReadCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Error("empty trace")
	}
}

func TestExecModelSelection(t *testing.T) {
	for _, name := range []string{"wcet", "bcet", "uniform", "extremes"} {
		if _, err := execModel(name); err != nil {
			t.Errorf("execModel(%q): %v", name, err)
		}
	}
	if _, err := execModel("quantum"); err == nil {
		t.Error("unknown exec model accepted")
	}
}

func TestRunSimErrors(t *testing.T) {
	path := writeFixture(t)
	cases := [][]string{
		{},
		{"-graph", "/nonexistent.json"},
		{"-graph", path, "-horizon", "bogus"},
		{"-graph", path, "-warmup", "bogus"},
		{"-graph", path, "-exec", "bogus"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v): expected error", args)
		}
	}
}

func TestRunSimPlain(t *testing.T) {
	path := writeFixture(t)
	if err := run([]string{"-graph", path, "-horizon", "200ms"}); err != nil {
		t.Fatal(err)
	}
	_ = strings.TrimSpace
}

func TestRunSimGantt(t *testing.T) {
	path := writeFixture(t)
	svg := filepath.Join(filepath.Dir(path), "g.svg")
	if err := run([]string{"-graph", path, "-horizon", "300ms", "-gantt", svg, "-gantt-ascii"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(svg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<svg") {
		t.Error("SVG output missing")
	}
}

func TestRunSimObservabilityFlags(t *testing.T) {
	path := writeFixture(t)
	dir := filepath.Dir(path)
	runTrace := filepath.Join(dir, "run.trace.json")
	manifest := filepath.Join(dir, "run.manifest.json")
	err := run([]string{
		"-graph", path, "-horizon", "500ms", "-warmup", "100ms",
		"-trace", runTrace, "-manifest", manifest, "-metrics",
	})
	if err != nil {
		t.Fatal(err)
	}
	traceData, err := os.ReadFile(runTrace)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceData, &doc); err != nil {
		t.Fatalf("runtrace is not valid JSON: %v", err)
	}
	sawRun := false
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "sim.run" {
			sawRun = true
		}
	}
	if !sawRun {
		t.Error("runtrace missing sim.run span")
	}
	manifestData, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Command string `json:"command"`
	}
	if err := json.Unmarshal(manifestData, &m); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if m.Command != "disparity-sim" {
		t.Errorf("manifest command = %q", m.Command)
	}
}

// TestRunSimJumpTally pins the one jump-ahead tally: a batch's -explain
// record reports as jump_runs exactly what explain.Derive reads from
// the run's exp.sim.jump.* counter delta — the counters -metrics dumps
// and the /metrics gauge derives from. Under the default extremes exec
// model every run falls back with "random-exec".
func TestRunSimJumpTally(t *testing.T) {
	path := writeFixture(t)
	explainPath := filepath.Join(filepath.Dir(path), "explain.json")
	before := metrics.Default.Export().CounterValues()
	err := run([]string{
		"-graph", path, "-horizon", "500ms", "-warmup", "100ms",
		"-runs", "3", "-random-offsets", "-explain", explainPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	delta := metrics.Default.Export().CounterValues()
	for name, v := range before {
		delta[name] -= v
	}
	data, err := os.ReadFile(explainPath)
	if err != nil {
		t.Fatal(err)
	}
	var rec explain.Record
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if want := map[string]int64{"random-exec": 3}; !maps.Equal(rec.JumpRuns, want) {
		t.Errorf("jump_runs = %v, want %v", rec.JumpRuns, want)
	}
	if counted := explain.Derive(delta).JumpRuns; !maps.Equal(rec.JumpRuns, counted) {
		t.Errorf("jump_runs = %v, but the exp.sim.jump.* counter delta derives %v", rec.JumpRuns, counted)
	}
}
