package exp

import (
	"strings"
	"testing"
)

// runLatencySweep runs LatencySweep under the pinned identity
// configuration, which keeps the test fast (two points, three graphs).
func runLatencySweep(t *testing.T, mutate func(*Config)) *Table {
	t.Helper()
	cfg := identityConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	tbl, err := LatencySweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func renderTable(t *testing.T, tbl *Table) string {
	t.Helper()
	var sb strings.Builder
	if err := tbl.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestLatencySweepGolden pins the sweep output against a golden file
// (regenerate with go test -update): the metric columns, the graph
// generation stream, and the aggregation are all part of the contract.
func TestLatencySweepGolden(t *testing.T) {
	checkSweepGolden(t, "sweep_latency", runLatencySweep(t, nil))
}

// TestLatencySweepDeterministic checks the sweep is a pure function of
// its configuration.
func TestLatencySweepDeterministic(t *testing.T) {
	base := renderTable(t, runLatencySweep(t, nil))
	if again := renderTable(t, runLatencySweep(t, nil)); again != base {
		t.Errorf("same config, different tables:\n--- first ---\n%s--- second ---\n%s", base, again)
	}
}

// TestLatencySweepBoundsDominate checks every row pairs each analytic
// mean with a simulated mean it dominates: the mean of per-graph sound
// bounds stays above the mean of the per-graph observations.
func TestLatencySweepBoundsDominate(t *testing.T) {
	tbl := runLatencySweep(t, nil)
	want := []string{"MRT", "MRT-sim", "MRRT", "MRRT-sim", "MDA", "MDA-sim", "MRDA", "MRDA-sim"}
	if len(tbl.Columns) != len(want) {
		t.Fatalf("columns = %v, want %v", tbl.Columns, want)
	}
	for i, c := range want {
		if tbl.Columns[i] != c {
			t.Fatalf("columns = %v, want %v", tbl.Columns, want)
		}
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range tbl.Rows {
		for i := 0; i < len(row.Values); i += 2 {
			bound, sim := row.Values[i], row.Values[i+1]
			if sim <= 0 {
				t.Errorf("n=%d: %s mean = %v, want > 0", row.X, tbl.Columns[i+1], sim)
			}
			if bound < sim {
				t.Errorf("n=%d: mean %s %v below mean %s %v",
					row.X, tbl.Columns[i], bound, tbl.Columns[i+1], sim)
			}
		}
	}
}
