package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares got against testdata/<name>.golden, rewriting the
// file under -update.
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

// TestGoldenFig6a pins the CLI's stdout for a fixed tiny configuration:
// flag parsing, sweep determinism, and table rendering all in one.
func TestGoldenFig6a(t *testing.T) {
	var buf bytes.Buffer
	if err := run(tinyArgs("-fig", "6a", "-seed", "1"), &buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig6a", buf.String())
}

// TestGoldenBounds pins the analysis-only sweep's output.
func TestGoldenBounds(t *testing.T) {
	var buf bytes.Buffer
	if err := run(tinyArgs("-fig", "bounds", "-seed", "1"), &buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "bounds", buf.String())
}

// TestMetricsFlag checks the default-off metrics dump: absent without
// the flag, and carrying the expected counter names with it. Values are
// not pinned (timers are wall-clock nondeterministic).
func TestMetricsFlag(t *testing.T) {
	var plain bytes.Buffer
	if err := run(tinyArgs("-fig", "6a", "-seed", "1"), &plain); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "metrics:") {
		t.Error("metrics dumped without -metrics")
	}
	var buf bytes.Buffer
	if err := run(tinyArgs("-fig", "6a", "-seed", "1", "-metrics"), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{
		"metrics:",
		"exp.graphs.generated",
		"sched.analyses",
		"sched.fixedpoint.iterations",
		"core.pairs.bounded",
		"chains.enumerated",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("metrics dump missing %q", name)
		}
	}
}

// TestPprofFlag checks that -pprof writes a non-empty profile.
func TestPprofFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.out")
	if err := run(tinyArgs("-fig", "bounds", "-seed", "1", "-pprof", path), new(bytes.Buffer)); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		t.Error("empty CPU profile")
	}
}
