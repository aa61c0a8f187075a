package sim

import (
	"testing"

	"repro/internal/can"
	"repro/internal/randgraph"
	"repro/internal/waters"
)

// TestFleetBatchSmoke runs the simulator over a reduced fleet graph
// (Zones: 2, a few hundred tasks with CAN message tasks spliced in) so
// the fleet tier is no longer analysis-only. Beyond finishing at all,
// the white-box audit pins the engine's memory behavior at this scale:
// every task appears exactly once across the release calendar's rings
// for the whole batch, and the event-heap capacity reached during the
// first run is the steady state — later seeds reuse it without growth,
// which is the pooling contract that makes multi-seed fleet batches
// affordable.
func TestFleetBatchSmoke(t *testing.T) {
	cfg := randgraph.FleetConfig{Zones: 2, ECUsPerZone: 4, PipesPerECU: 4, ProcDepth: 8, TailLen: 2}
	g, _, err := randgraph.Fleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waters.PopulateBudget(g, newTestRand(), 20*ms, 0.5)
	bus := can.Bus{Rate: can.Baud500k, Format: can.Standard, Payload: 8}
	if _, _, err := bus.Split(g, "can0"); err != nil {
		t.Fatal(err)
	}
	if g.NumTasks() < 100 {
		t.Fatalf("reduced fleet has only %d tasks, want a few hundred", g.NumTasks())
	}

	b, err := NewBatch(g, Config{Horizon: 400 * ms})
	if err != nil {
		t.Fatal(err)
	}
	eng := b.Engine()
	var heapCap int
	for seed := int64(1); seed <= 5; seed++ {
		res, err := b.Run(BatchRun{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Stats.Jobs < int64(g.NumTasks()) {
			t.Fatalf("seed %d: only %d jobs over a 400ms horizon on %d tasks", seed, res.Stats.Jobs, g.NumTasks())
		}
		if res.Stats.Overruns != 0 {
			t.Errorf("seed %d: %d overruns on a budgeted (schedulable) fleet workload", seed, res.Stats.Overruns)
		}
		// Calendar: one entry per task across the rings, no drift.
		seen := make([]int, g.NumTasks())
		for _, r := range eng.releases.ring {
			seen[r.task]++
		}
		for task, n := range seen {
			if n != 1 {
				t.Fatalf("seed %d: task %d has %d entries across the calendar's rings, want 1", seed, task, n)
			}
		}
		if seed == 1 {
			heapCap = cap(eng.events.s)
			continue
		}
		// Heap growth: the first run's high-water capacity is the steady
		// state; reruns on the pooled engine must not reallocate.
		if got := cap(eng.events.s); got > heapCap {
			t.Fatalf("seed %d: event heap grew to cap %d after steady state %d", seed, got, heapCap)
		}
	}
	if heapCap == 0 {
		t.Fatal("event heap never grew — the fleet run processed no events")
	}
}
