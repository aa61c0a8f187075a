package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	disparity "repro"
	"repro/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestGoldenAnalyzeFig2 pins the full report for the paper's Fig. 2
// example: schedulability table, per-chain backward bounds, both
// disparity methods with the pair breakdown, and Algorithm 1's plan.
func TestGoldenAnalyzeFig2(t *testing.T) {
	path := writeFixture(t)
	var buf bytes.Buffer
	if err := run([]string{"-graph", path, "-pairs", "-optimize"}, &buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig2_report", buf.String())
}

// TestGoldenExplainWaters pins the -explain decision record for a
// WATERS-parameterized automotive workload: prune ratio, truncation status, per-method argmax pairs, and the
// worst-case witness with its replay recipe. The record contains only
// deterministic quantities (counter deltas and simulated times, no
// wall-clock), so it goldens cleanly.
func TestGoldenExplainWaters(t *testing.T) {
	g, fusion, err := disparity.GenerateAutomotive(disparity.AutomotiveConfig{}, disparity.GenConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "waters.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	explainPath := filepath.Join(dir, "out.json")
	var buf bytes.Buffer
	if err := run([]string{"-graph", path, "-task", g.Task(fusion).Name, "-explain", explainPath}, &buf); err != nil {
		t.Fatal(err)
	}
	record, err := os.ReadFile(explainPath)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "waters_explain", string(record))

	if !strings.Contains(buf.String(), "explain:") {
		t.Error("stdout missing the explain section")
	}
	for _, side := range []string{"out.witness.svg", "out.witness.trace.json"} {
		if info, err := os.Stat(filepath.Join(dir, side)); err != nil || info.Size() == 0 {
			t.Errorf("witness artifact %s missing or empty (err %v)", side, err)
		}
	}
}

// TestAnalyzeMetricsFlag checks the default-off metrics dump and that
// the WCRT fixed point and the pair bounds show activity.
func TestAnalyzeMetricsFlag(t *testing.T) {
	path := writeFixture(t)
	var plain bytes.Buffer
	if err := run([]string{"-graph", path}, &plain); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "metrics:") {
		t.Error("metrics dumped without -metrics")
	}
	var buf bytes.Buffer
	if err := run([]string{"-graph", path, "-pairs", "-optimize", "-metrics"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{
		"metrics:",
		"sched.analyses",
		"core.pairs.bounded",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("metrics dump missing %q", name)
		}
	}
}

// TestAnalyzeComputesWCRTOnce pins that the analysis reuses the
// schedulability table's WCRT result: one run reads sched.analyses 1.
func TestAnalyzeComputesWCRTOnce(t *testing.T) {
	path := writeFixture(t)
	metrics.Reset() // the registry is process-wide
	var buf bytes.Buffer
	if err := run([]string{"-graph", path, "-pairs", "-optimize", "-metrics"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "sched.analyses" {
			if f[1] != "1" {
				t.Errorf("sched.analyses %s, want 1", f[1])
			}
			return
		}
	}
	t.Fatalf("metrics dump has no sched.analyses line:\n%s", buf.String())
}

// TestAnalyzePprofFlag checks that -pprof writes a non-empty profile.
func TestAnalyzePprofFlag(t *testing.T) {
	graph := writeFixture(t)
	prof := filepath.Join(t.TempDir(), "cpu.out")
	if err := run([]string{"-graph", graph, "-pprof", prof}, new(bytes.Buffer)); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(prof)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		t.Error("empty CPU profile")
	}
}
