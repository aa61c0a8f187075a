package exp

import (
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/timeu"
)

// tiny returns a configuration small enough for unit tests.
func tiny() Config {
	cfg := Defaults()
	cfg.Points = []int{5, 8}
	cfg.GraphsPerPoint = 3
	cfg.OffsetsPerGraph = 2
	cfg.Horizon = 500 * timeu.Millisecond
	cfg.Warmup = 100 * timeu.Millisecond
	return cfg
}

func TestTableBasics(t *testing.T) {
	tbl := &Table{Title: "T", XLabel: "x", Columns: []string{"a", "b"}}
	tbl.AddRow(1, 0.5, 1.5)
	tbl.AddRow(2, 2.5, 3.5)

	var text strings.Builder
	if err := tbl.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"T", "x", "a", "b", "0.500", "3.500"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text output missing %q:\n%s", want, text.String())
		}
	}

	var csvOut strings.Builder
	if err := tbl.WriteCSV(&csvOut); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csvOut.String(), "x,a,b\n1,0.5,1.5\n") {
		t.Errorf("CSV output unexpected:\n%s", csvOut.String())
	}

	col, err := tbl.Column("b")
	if err != nil {
		t.Fatal(err)
	}
	if len(col) != 2 || col[0] != 1.5 || col[1] != 3.5 {
		t.Errorf("Column(b) = %v", col)
	}
	if _, err := tbl.Column("zzz"); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestTableAddRowPanicsOnArity(t *testing.T) {
	tbl := &Table{Columns: []string{"a"}}
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	tbl.AddRow(1, 1.0, 2.0)
}

// TestColumnMeans checks the sweep aggregation: nil rows (abandoned
// graphs) and NaN cells stay out of a column's mean, and a column
// with no number averages to 0.
func TestColumnMeans(t *testing.T) {
	nan := math.NaN()
	rows := [][]float64{
		{1, nan, nan},
		nil,
		{2, 4, nan},
		{3, 8, nan},
		nil,
	}
	got := columnMeans(rows, 3)
	want := []float64{2, 6, 0}
	for c := range want {
		if got[c] != want[c] {
			t.Errorf("column %d mean = %v, want %v (all means %v)", c, got[c], want[c], got)
		}
	}
	for c, m := range columnMeans([][]float64{nil, nil}, 2) {
		if m != 0 {
			t.Errorf("all-nil rows: column %d mean = %v, want 0", c, m)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := tiny()
	if err := good.validate(); err != nil {
		t.Fatal(err)
	}
	bad := tiny()
	bad.Points = nil
	if bad.validate() == nil {
		t.Error("no points accepted")
	}
	bad = tiny()
	bad.GraphsPerPoint = 0
	if bad.validate() == nil {
		t.Error("0 graphs accepted")
	}
	bad = tiny()
	bad.Horizon = 0
	if bad.validate() == nil {
		t.Error("0 horizon accepted")
	}
	bad = tiny()
	bad.Exec = nil
	if bad.validate() == nil {
		t.Error("nil exec accepted")
	}
}

// TestWarmupCheckedWhereSimulated checks that a simulating sweep
// rejects a warm-up outside [0, Horizon), which would discard every
// observation, and that an analysis-only sweep, which never reads the
// warm-up, accepts it.
func TestWarmupCheckedWhereSimulated(t *testing.T) {
	for _, w := range []timeu.Time{tiny().Horizon, -1} {
		cfg := tiny()
		cfg.Points = []int{5}
		cfg.GraphsPerPoint = 1
		cfg.Warmup = w
		if _, _, err := Fig6ab(cfg); err == nil || !strings.Contains(err.Error(), "warm-up") {
			t.Errorf("Fig6ab with warm-up %v: err = %v, want a warm-up error", w, err)
		}
		if _, err := BoundsSweep(cfg); err != nil {
			t.Errorf("BoundsSweep with warm-up %v: %v", w, err)
		}
	}
}

func TestFig6abSmall(t *testing.T) {
	cfg := tiny()
	var log strings.Builder
	cfg.Log = &log
	abs, ratio, err := Fig6ab(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(abs.Rows) != len(cfg.Points) || len(ratio.Rows) != len(cfg.Points) {
		t.Fatalf("rows = %d/%d, want %d", len(abs.Rows), len(ratio.Rows), len(cfg.Points))
	}
	simCol, _ := abs.Column("Sim")
	pdCol, _ := abs.Column("P-diff")
	sdCol, _ := abs.Column("S-diff")
	for i := range simCol {
		// Safety on averages: each per-graph Sim ≤ bounds, so means obey too.
		if simCol[i] > pdCol[i]+1e-9 {
			t.Errorf("row %d: mean Sim %.3f above mean P-diff %.3f", i, simCol[i], pdCol[i])
		}
		if simCol[i] > sdCol[i]+1e-9 {
			t.Errorf("row %d: mean Sim %.3f above mean S-diff %.3f", i, simCol[i], sdCol[i])
		}
		if pdCol[i] <= 0 {
			t.Errorf("row %d: non-positive P-diff", i)
		}
	}
	if !strings.Contains(log.String(), "n=5") {
		t.Error("progress log empty")
	}
}

// TestSDiffSeparatesFromPDiff pins the Fig. 6(a) shape: with the shared
// pipeline tail of the default workload, the fork-join-aware S-diff is
// strictly tighter than P-diff on average.
func TestSDiffSeparatesFromPDiff(t *testing.T) {
	cfg := tiny()
	cfg.Points = []int{15}
	cfg.GraphsPerPoint = 5
	abs, err := Fig6a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pd, _ := abs.Column("P-diff")
	sd, _ := abs.Column("S-diff")
	if sd[0] >= pd[0] {
		t.Errorf("S-diff %.3f not below P-diff %.3f on funnel workloads", sd[0], pd[0])
	}
	// And without the tail the two coincide: any multi-source GNM graph
	// contains a worst pair with no shared structure.
	cfg.TailLen = 0
	abs0, err := Fig6a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pd0, _ := abs0.Column("P-diff")
	sd0, _ := abs0.Column("S-diff")
	if d := pd0[0] - sd0[0]; d < 0 || d > 0.001*pd0[0] {
		t.Errorf("tail-less P-diff %.3f and S-diff %.3f should coincide", pd0[0], sd0[0])
	}
}

func TestFig6aAndBSeparately(t *testing.T) {
	cfg := tiny()
	cfg.Points = []int{6}
	a, err := Fig6a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 1 || len(a.Columns) != 3 {
		t.Errorf("Fig6a shape wrong: %+v", a)
	}
	b, err := Fig6b(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Rows) != 1 || len(b.Columns) != 2 {
		t.Errorf("Fig6b shape wrong: %+v", b)
	}
}

func TestFig6cdSmall(t *testing.T) {
	cfg := tiny()
	cfg.Points = []int{3, 5}
	abs, ratio, err := Fig6cd(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(abs.Rows) != 2 || len(ratio.Rows) != 2 {
		t.Fatal("wrong row count")
	}
	sims, _ := abs.Column("Sim")
	sds, _ := abs.Column("S-diff")
	simBs, _ := abs.Column("Sim-B")
	sdBs, _ := abs.Column("S-diff-B")
	for i := range sims {
		if sims[i] > sds[i]+1e-9 {
			t.Errorf("row %d: Sim %.3f above S-diff %.3f", i, sims[i], sds[i])
		}
		if simBs[i] > sdBs[i]+1e-9 {
			t.Errorf("row %d: Sim-B %.3f above S-diff-B %.3f", i, simBs[i], sdBs[i])
		}
		// The optimization must not loosen the bound (Theorem 3: −L ≤ 0).
		if sdBs[i] > sds[i]+1e-9 {
			t.Errorf("row %d: S-diff-B %.3f above S-diff %.3f", i, sdBs[i], sds[i])
		}
	}
}

func TestFig6cAndDSeparately(t *testing.T) {
	cfg := tiny()
	cfg.Points = []int{4}
	c, err := Fig6c(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Columns) != 4 {
		t.Errorf("Fig6c columns = %v", c.Columns)
	}
	d, err := Fig6d(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Columns) != 2 {
		t.Errorf("Fig6d columns = %v", d.Columns)
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	cfg := tiny()
	cfg.Points = []int{6}
	a1, err := Fig6a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Fig6a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a1.Rows {
		for j := range a1.Rows[i].Values {
			if a1.Rows[i].Values[j] != a2.Rows[i].Values[j] {
				t.Fatalf("same config produced different results: %v vs %v", a1.Rows[i], a2.Rows[i])
			}
		}
	}
}

func TestDefaultsAndPaperScale(t *testing.T) {
	d := Defaults()
	if err := d.validate(); err != nil {
		t.Fatal(err)
	}
	p := PaperScale()
	if p.Horizon != 10*timeu.Minute {
		t.Errorf("PaperScale horizon = %v, want 10min", p.Horizon)
	}
	if d.workers() < 1 {
		t.Error("workers() must be positive")
	}
	d.Workers = 3
	if d.workers() != 3 {
		t.Error("explicit Workers ignored")
	}
	if _, ok := d.Exec.(sim.ExtremesExec); !ok {
		t.Errorf("default exec = %T, want ExtremesExec", d.Exec)
	}
}
