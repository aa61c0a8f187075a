package explain

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/chains"
	"repro/internal/core"
	"repro/internal/model"
)

// fig2Sink is τ6 of the Fig. 2 fixture (IDs are insertion-ordered).
const fig2Sink = model.TaskID(5)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	r.SetGraph("g", 1, 2)
	r.Method(MethodRecord{Method: "sdiff"})
	r.Sim(SimRecord{Label: "run"})
	r.SetWitness(&Witness{})
	if rec := r.Record(); rec != nil {
		t.Fatalf("nil recorder Record() = %+v, want nil", rec)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil WriteJSON wrote %q, err %v", buf.String(), err)
	}
	if err := r.WriteSummary(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil WriteSummary wrote %q, err %v", buf.String(), err)
	}
	if err := r.WriteFile(filepath.Join(t.TempDir(), "x.json")); err != nil {
		t.Fatalf("nil WriteFile: %v", err)
	}
}

func TestRecorderCountsOnlyItsOwnRun(t *testing.T) {
	g := model.Fig2Graph()

	r := New("test")
	a, err := core.New(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.DisparityBound(fig2Sink, core.SDiff, 0); err != nil {
		t.Fatal(err)
	}
	rec := r.Record()
	if rec.Command != "test" {
		t.Errorf("Command = %q", rec.Command)
	}
	if rec.Pairs == nil || rec.Pairs.Bounded+rec.Pairs.Pruned == 0 {
		t.Fatalf("Pairs section missing after analysis: %+v", rec.Pairs)
	}
	if rec.Chains == nil || rec.Chains.Indexed == 0 {
		t.Fatalf("Chains section missing after analysis: %+v", rec.Chains)
	}
	if rec.Pairs.PruneRatio < 0 || rec.Pairs.PruneRatio > 1 {
		t.Errorf("PruneRatio = %v", rec.Pairs.PruneRatio)
	}

	// A recorder created after the work sees none of it.
	after := New("after").Record()
	if after.Pairs != nil || after.Chains != nil {
		t.Errorf("fresh recorder saw stale activity: %+v", after)
	}
}

func TestWitnessValidity(t *testing.T) {
	g := model.Fig2Graph()
	a, err := core.New(g)
	if err != nil {
		t.Fatal(err)
	}
	td, err := a.DisparityBound(fig2Sink, core.SDiff, 0)
	if err != nil {
		t.Fatal(err)
	}
	w, err := BuildWitness(g, "sdiff", td, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w == nil {
		t.Fatal("no witness for a task with pairs")
	}
	if w.AttainedNS <= 0 {
		t.Errorf("attained disparity = %v, want > 0", w.AttainedNS)
	}
	// The analytical bound must dominate any simulated schedule.
	if w.AttainedNS > w.BoundNS {
		t.Errorf("attained %v exceeds bound %v", w.AttainedNS, w.BoundNS)
	}
	// The replay recipe embedded in the witness reproduces it exactly.
	got, err := w.Replay(g)
	if err != nil {
		t.Fatal(err)
	}
	if got != w.AttainedNS {
		t.Errorf("replay attained %v, witness says %v", got, w.AttainedNS)
	}
	if w.Jump.Code != "random-exec" {
		t.Errorf("witness jump code = %q, want random-exec", w.Jump.Code)
	}
	if len(w.Timeline) == 0 {
		t.Error("witness has no timeline")
	}
	if w.Job.Task != fig2Sink {
		t.Errorf("witness job task = %d, want %d", w.Job.Task, fig2Sink)
	}

	var svg bytes.Buffer
	if err := w.WriteSVG(&svg); err != nil {
		t.Fatalf("WriteSVG: %v", err)
	}
	if !strings.Contains(svg.String(), "<svg") {
		t.Error("SVG output missing <svg element")
	}

	ctPath := filepath.Join(t.TempDir(), "witness.trace.json")
	if err := w.WriteChromeTrace(ctPath); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	raw, err := os.ReadFile(ctPath)
	if err != nil {
		t.Fatal(err)
	}
	var ct struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &ct); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	if len(ct.TraceEvents) == 0 {
		t.Error("chrome trace has no events")
	}
}

func TestWitnessNilForEmptyDisparity(t *testing.T) {
	g := model.Fig2Graph()
	td := &core.TaskDisparity{Task: 0, ArgMax: -1}
	w, err := BuildWitness(g, "sdiff", td, 1)
	if err != nil || w != nil {
		t.Fatalf("BuildWitness on empty = (%v, %v), want (nil, nil)", w, err)
	}
}

// TestExplainDifferential asserts a live recorder changes nothing about
// analysis results: explain-enabled and explain-disabled runs are
// bit-identical (the recorder only reads counters, never hooks paths).
func TestExplainDifferential(t *testing.T) {
	run := func(record bool) *core.TaskDisparity {
		g := model.Fig2Graph()
		var r *Recorder
		if record {
			r = New("diff")
		}
		a, err := core.New(g)
		if err != nil {
			t.Fatal(err)
		}
		td, err := a.DisparityBound(fig2Sink, core.SDiff, 0)
		if err != nil {
			t.Fatal(err)
		}
		r.Record() // exercise the read path
		return td
	}
	on, off := run(true), run(false)
	if !reflect.DeepEqual(on, off) {
		t.Errorf("explain-enabled result differs:\n on: %+v\noff: %+v", on, off)
	}
}

func TestWriteSummaryRendersSections(t *testing.T) {
	g := model.Fig2Graph()
	r := New("sum")
	a, err := core.New(g)
	if err != nil {
		t.Fatal(err)
	}
	td, err := a.DisparityBound(fig2Sink, core.SDiff, 0)
	if err != nil {
		t.Fatal(err)
	}
	pb := td.Pairs[td.ArgMax]
	r.Method(MethodRecord{
		Method: "sdiff", BoundNS: td.Bound, NumPairs: int64(td.NumPairs),
		ArgMax: &ArgMaxInfo{Lambda: pb.Lambda.Format(g), Nu: pb.Nu.Format(g), BoundNS: pb.Bound},
	})
	w, err := BuildWitness(g, "sdiff", td, 1)
	if err != nil {
		t.Fatal(err)
	}
	r.SetWitness(w)
	var buf bytes.Buffer
	if err := r.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"explain:", "pair bounds:", "sdiff:", "witness:", "random-exec", "path masks:"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q in:\n%s", want, out)
		}
	}
}

func TestMaskMode(t *testing.T) {
	cases := []struct {
		word, multi, skipped int64
		want                 string
	}{
		{0, 0, 0, ""},
		{3, 0, 0, "word"},
		{0, 2, 0, "multi"},
		{0, 0, 1, "skipped"},
		{1, 1, 0, "mixed"},
		{1, 0, 1, "mixed"},
		{1, 2, 3, "mixed"},
	}
	for _, c := range cases {
		if got := maskMode(c.word, c.multi, c.skipped); got != c.want {
			t.Errorf("maskMode(%d, %d, %d) = %q, want %q", c.word, c.multi, c.skipped, got, c.want)
		}
	}
}

// TestChainStatsCauses pins the cause derivation: a run whose only
// truncations are node-budget reports "node-budget"; chain-cap-only
// runs report "max-chains-cap"; a run that hit both reports "mixed".
func TestChainStatsCauses(t *testing.T) {
	g := model.Fig2Graph()
	r := New("cause")
	old := chains.DefaultMaxNodes
	defer func() { chains.DefaultMaxNodes = old }()
	chains.DefaultMaxNodes = 2
	idx := chains.NewIndex(g, fig2Sink, 0)
	if idx.Cause() != chains.TruncatedNodeBudget {
		t.Fatalf("cause = %v, want node budget", idx.Cause())
	}
	rec := r.Record()
	if rec.Chains == nil || rec.Chains.Cause != "node-budget" {
		t.Fatalf("record cause = %+v, want node-budget", rec.Chains)
	}

	chains.DefaultMaxNodes = old
	r2 := New("cause2")
	if !chains.NewIndex(g, fig2Sink, 1).Truncated() {
		t.Fatal("cap 1 not truncated")
	}
	rec2 := r2.Record()
	if rec2.Chains == nil || rec2.Chains.Cause != "max-chains-cap" {
		t.Fatalf("record cause = %+v, want max-chains-cap", rec2.Chains)
	}

	mixed := Derive(map[string]int64{"chains.truncated": 3, "chains.truncated.nodes": 1})
	if mixed.Chains == nil || mixed.Chains.Cause != "mixed" {
		t.Fatalf("record cause = %+v, want mixed", mixed.Chains)
	}
}
