package main

import (
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func tinyArgs(extra ...string) []string {
	base := []string{
		"-points", "5,8", "-graphs", "1", "-offsets", "1",
		"-horizon", "1300ms", "-quiet",
	}
	return append(base, extra...)
}

func TestRunEachFigure(t *testing.T) {
	for _, fig := range []string{"6a", "6b", "6c", "6d"} {
		if err := run(tinyArgs("-fig", fig), io.Discard); err != nil {
			t.Errorf("fig %s: %v", fig, err)
		}
	}
}

func TestRunAblations(t *testing.T) {
	if err := run(tinyArgs("-fig", "ablation-backward"), io.Discard); err != nil {
		t.Errorf("ablation-backward: %v", err)
	}
	if err := run([]string{"-fig", "ablation-tail", "-graphs", "1", "-offsets", "1", "-horizon", "1300ms", "-quiet"}, io.Discard); err != nil {
		t.Errorf("ablation-tail: %v", err)
	}
	if err := run(tinyArgs("-fig", "ablation-exec"), io.Discard); err != nil {
		t.Errorf("ablation-exec: %v", err)
	}
	if err := run(tinyArgs("-fig", "latency"), io.Discard); err != nil {
		t.Errorf("latency: %v", err)
	}
}

func TestRunAllWithCSV(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "out.csv")
	if err := run(tinyArgs("-fig", "all", "-csv", csv, "-seed", "9"), io.Discard); err != nil {
		t.Fatal(err)
	}
	// Four panels: suffixed files.
	matches, err := filepath.Glob(filepath.Join(dir, "out.*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 4 {
		t.Errorf("CSV files = %v, want 4", matches)
	}
	for _, m := range matches {
		data, err := os.ReadFile(m)
		if err != nil || len(data) == 0 {
			t.Errorf("empty CSV %s (%v)", m, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-fig", "bogus"}, io.Discard); err == nil {
		t.Error("unknown figure accepted")
	}
	if err := run([]string{"-points", "x,y"}, io.Discard); err == nil {
		t.Error("bad points accepted")
	}
	if err := run([]string{"-horizon", "bogus"}, io.Discard); err == nil {
		t.Error("bad horizon accepted")
	}
	// The 1 s warm-up would discard every job of a 300 ms run; the
	// bounds sweep never simulates, so the same horizon is fine there.
	short := []string{"-points", "5", "-graphs", "1", "-offsets", "1", "-horizon", "300ms", "-quiet"}
	if err := run(append([]string{"-fig", "6a"}, short...), io.Discard); err == nil {
		t.Error("warm-up beyond the horizon accepted")
	}
	if err := run(append([]string{"-fig", "bounds"}, short...), io.Discard); err != nil {
		t.Errorf("bounds sweep under a 300 ms horizon: %v", err)
	}
}

// TestFigUsageListsEverySweep checks that -fig's usage names every key
// of the sweeps map, and all.
func TestFigUsageListsEverySweep(t *testing.T) {
	usage := figUsage()
	values := strings.Split(usage, "|")
	for fig := range sweeps {
		if !slices.Contains(values, fig) {
			t.Errorf("-fig usage %q lacks %q", usage, fig)
		}
	}
	if !slices.Contains(values, "all") {
		t.Errorf("-fig usage %q lacks all", usage)
	}
}
