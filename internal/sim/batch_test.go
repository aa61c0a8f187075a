package sim

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/timeu"
)

// TestBatchMatchesFreshEngines pins the batch contract: every run
// through the shared engine is bit-identical to the same configuration
// on a fresh engine, across seed, offset, exec, and observer variation.
func TestBatchMatchesFreshEngines(t *testing.T) {
	g, _, _, _ := pipeline(t)
	base := Config{Horizon: 500 * ms, Exec: WCETExec{}}
	batch, err := NewBatch(g, base)
	if err != nil {
		t.Fatal(err)
	}
	runs := []BatchRun{
		{Seed: 1},
		{Seed: 2, Offsets: []timeu.Time{3 * ms, 1 * ms, 7 * ms}},
		{Seed: 3, Exec: ExtremesExec{P: 0.5}},
		{Seed: 4, Exec: UniformExec{}, Offsets: []timeu.Time{0, 5 * ms, 5 * ms}},
		{Seed: 1}, // repeat of the first: engine reuse must not leak state
		// A WCET run leaves the rng unseeded; the random run after it
		// with the same seed must still draw a fresh engine's stream.
		{Seed: 5},
		{Seed: 5, Exec: UniformExec{}},
	}
	for i, r := range runs {
		r.Observers = []Observer{NewDisparityObserver(0)}
		got, err := batch.Run(r)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		wantCfg := base
		wantCfg.Seed = r.Seed
		wantCfg.Offsets = r.Offsets
		if r.Exec != nil {
			wantCfg.Exec = r.Exec
		}
		wantObs := NewDisparityObserver(0)
		wantCfg.Observers = []Observer{wantObs}
		want, err := Run(g, wantCfg)
		if err != nil {
			t.Fatalf("run %d reference: %v", i, err)
		}
		if !reflect.DeepEqual(got.Stats, want) {
			t.Errorf("run %d stats diverge:\n batch: %+v\n fresh: %+v", i, got.Stats, want)
		}
		bo := r.Observers[0].(*DisparityObserver)
		for task := 0; task < g.NumTasks(); task++ {
			id := model.TaskID(task)
			if bo.Max(id) != wantObs.Max(id) {
				t.Errorf("run %d task %d disparity: batch %v, fresh %v", i, task, bo.Max(id), wantObs.Max(id))
			}
		}
	}
}

// TestBatchJumpStats checks that BatchResult carries the per-run
// jump-ahead outcome: deterministic runs engage, random-exec runs
// report the fallback reason.
func TestBatchJumpStats(t *testing.T) {
	g, _, _, _ := pipeline(t)
	batch, err := NewBatch(g, Config{Horizon: timeu.Second, Exec: WCETExec{}})
	if err != nil {
		t.Fatal(err)
	}
	det, err := batch.Run(BatchRun{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !det.Jump.Engaged {
		t.Errorf("deterministic run did not engage: %+v", det.Jump)
	}
	rnd, err := batch.Run(BatchRun{Seed: 1, Exec: UniformExec{}})
	if err != nil {
		t.Fatal(err)
	}
	if rnd.Jump.Eligible || rnd.Jump.Engaged {
		t.Errorf("random-exec run should fall back: %+v", rnd.Jump)
	}
}

// TestBatchRunAll checks the ordered convenience form, including that
// a failing variant stops the batch and returns the completed prefix.
func TestBatchRunAll(t *testing.T) {
	g, _, _, _ := pipeline(t)
	batch, err := NewBatch(g, Config{Horizon: 100 * ms, Exec: WCETExec{}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := batch.RunAll([]BatchRun{{Seed: 1}, {Seed: 2}, {Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d results, want 3", len(res))
	}
	for i, r := range res {
		if r.Stats == nil || r.Stats.Jobs == 0 {
			t.Errorf("result %d is degenerate: %+v", i, r)
		}
	}
	res, err = batch.RunAll([]BatchRun{
		{Seed: 1},
		{Seed: 2, Offsets: []timeu.Time{0}}, // wrong length: 1 offset for 3 tasks
		{Seed: 3},
	})
	if err == nil {
		t.Fatal("short offsets slice did not fail")
	}
	if len(res) != 1 {
		t.Errorf("got %d completed results before the error, want 1", len(res))
	}
}

// TestNegativeOffsetsRejected pins that a per-run offset below zero is
// an error naming the task, through sim.Run and Batch.Run alike, as a
// negative graph offset is: the calendar compares (time, seq) keys as
// unsigned numbers, so a negative release time would fire last instead
// of first. The engine stays usable after the rejected run.
func TestNegativeOffsetsRejected(t *testing.T) {
	g, _, _, _ := pipeline(t)
	neg := []timeu.Time{0, -ms, 2 * ms}
	_, err := Run(g, Config{Horizon: 100 * ms, Offsets: neg})
	if err == nil || !strings.Contains(err.Error(), "task a has negative offset") {
		t.Fatalf("sim.Run with a negative offset: err %v, want one naming task a", err)
	}
	batch, err := NewBatch(g, Config{Horizon: 100 * ms, Exec: WCETExec{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := batch.Run(BatchRun{Seed: 1, Offsets: neg}); err == nil || !strings.Contains(err.Error(), "task a has negative offset") {
		t.Fatalf("Batch.Run with a negative offset: err %v, want one naming task a", err)
	}
	got, err := batch.Run(BatchRun{Seed: 1, Offsets: []timeu.Time{0, ms, 2 * ms}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(g, Config{Horizon: 100 * ms, Exec: WCETExec{}, Seed: 1, Offsets: []timeu.Time{0, ms, 2 * ms}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Stats, want) {
		t.Errorf("run after the rejected one diverges from a fresh engine:\n%+v\n%+v", got.Stats, want)
	}
}

// TestBatchOffsetsLeaveGraphUntouched pins the reason Config.Offsets
// exists: batched variants must not write into the shared graph.
func TestBatchOffsetsLeaveGraphUntouched(t *testing.T) {
	g, _, _, _ := pipeline(t)
	before := make([]timeu.Time, g.NumTasks())
	for i := range before {
		before[i] = g.Task(model.TaskID(i)).Offset
	}
	batch, err := NewBatch(g, Config{Horizon: 100 * ms, Exec: WCETExec{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := batch.Run(BatchRun{Seed: 1, Offsets: []timeu.Time{9 * ms, 4 * ms, 2 * ms}}); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if got := g.Task(model.TaskID(i)).Offset; got != before[i] {
			t.Errorf("task %d offset mutated: %v -> %v", i, before[i], got)
		}
	}
}

// runAllocs returns how many objects one run allocates on a Batch over
// the pipeline, with disparity and latency observers at the given
// warm-up, once a first run has sized the engine's buffers.
func runAllocs(t *testing.T, warm timeu.Time, disable bool) float64 {
	t.Helper()
	g, src, _, b := pipeline(t)
	batch, err := NewBatch(g, Config{Horizon: 10 * timeu.Second, Exec: WCETExec{}, DisableJumpAhead: disable})
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		res, err := batch.Run(BatchRun{Seed: 1, Observers: []Observer{
			NewDisparityObserver(warm),
			NewLatencyObserver(b, []model.TaskID{src}, warm),
		}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Jump.Engaged == disable {
			t.Fatalf("warm-up %v, DisableJumpAhead %v: jump %+v", warm, disable, res.Jump)
		}
	}
	run() // size the pools, heaps and snapshot slots
	return testing.AllocsPerRun(10, run)
}

// TestBatchAllocsIndependentOfWarmup pins allocation-free jump-ahead
// detection on a reused engine: boundary snapshots reuse their slots
// and the jump's visited set and the rng are kept across runs, so a
// jumped run allocates the same however many boundaries its warm-up
// leaves to fingerprint.
func TestBatchAllocsIndependentOfWarmup(t *testing.T) {
	short, long := runAllocs(t, 200*ms, false), runAllocs(t, 2*timeu.Second, false)
	if short != long {
		t.Errorf("allocations per run depend on the warm-up: %v under 200ms, %v under 2s", short, long)
	}
	t.Logf("%v allocations per run", short)
}

// TestBatchDetectionAllocatesNothing pins that, once a reused engine's
// buffers are sized, jump-ahead detection and the jump allocate
// nothing: a jumped run allocates exactly as many objects as the same
// run executed in full.
func TestBatchDetectionAllocatesNothing(t *testing.T) {
	if jumped, full := runAllocs(t, 200*ms, false), runAllocs(t, 200*ms, true); jumped != full {
		t.Errorf("a jumped run allocates %v objects, the full run %v", jumped, full)
	}
}
