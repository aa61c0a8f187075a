package integration

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/randgraph"
	"repro/internal/sim"
	"repro/internal/timeu"
	"repro/internal/waters"
)

// The pooled engine's release calendar keeps one sorted ring per period
// class, and its dispatch pass visits only the ECUs a finish or a
// release touched. The WATERS corpus of TestPooledEngineMatchesReference
// reaches neither edge of that design: its offsets lie in [0, P), so no
// ring ever needs its insertion step, and its graphs have four ECUs, so
// the touched set is one word. The workloads here are built to reach
// both, and the pooled engine must still match the reference engine bit
// for bit.

// Calendar workload shapes, combinable as bit flags. The first four are
// the calendar and dispatch edges; the rest vary the engine paths the
// fuzz target mixes in.
const (
	// shapeWideOffsets draws offsets over four periods, so a class's
	// pending releases start more than a period apart.
	shapeWideOffsets = 1 << iota
	// shapeEqualOffsets gives every task of a period class the same
	// whole-millisecond offset: the class's releases tie in time for the
	// whole run and their seqs decide, and classes meet at common
	// instants.
	shapeEqualOffsets
	// shapeSporadicMix makes about a third of the tasks sporadic, each
	// among periodic tasks of its period.
	shapeSporadicMix
	// shapeManyECUs spreads the tasks over more than 64 ECUs.
	shapeManyECUs
	shapeLET
	shapeMixedLET
	shapeBuffered
	shapeZeroBCET
	// shapeRunOffsets passes the drawn offsets per run (Config.Offsets,
	// and BatchRun.Offsets as sim.Batch's callers do) and gives the
	// graph a different draw, so an engine that releases at the graph's
	// offsets diverges.
	shapeRunOffsets
)

// calendarGraph builds a WATERS-parameterized GNM graph of n tasks on
// the given number of ECUs and applies the shape. shapeManyECUs raises
// both to 65 or more, 66–89 tasks on 65–96 ECUs, so that tasks run on
// ECUs past 63 (GNM deals tasks to ECUs round-robin). The graph is not
// checked for schedulability: an overloaded one counts overruns, which
// both engines must agree on too. The offsets are nil unless the shape
// has shapeRunOffsets.
func calendarGraph(rng *rand.Rand, n, ecus, shape int) (*model.Graph, []timeu.Time, error) {
	if shape&shapeManyECUs != 0 {
		n = 66 + n%24
		ecus = 65 + ecus%32
	}
	m := min(2*n, n*(n-1)/2)
	g, err := randgraph.GNM(n, m, randgraph.Config{ECUs: ecus, StimulusSources: true}, rng)
	if err != nil {
		return nil, nil, err
	}
	waters.Populate(g, rng)
	for i := 0; i < g.NumTasks(); i++ {
		task := g.Task(model.TaskID(i))
		scheduled := task.ECU != model.NoECU
		if scheduled && (shape&shapeLET != 0 || shape&shapeMixedLET != 0 && i%2 == 0) {
			task.Sem = model.LET
		}
		if scheduled && shape&shapeZeroBCET != 0 {
			task.BCET = 0
		}
		if shape&shapeSporadicMix != 0 && rng.Intn(3) == 0 {
			task.MaxPeriod = task.Period * timeu.Time(2+rng.Intn(2))
		}
	}
	if shape&shapeBuffered != 0 {
		for _, edge := range g.Edges() {
			if err := g.SetBuffer(edge.Src, edge.Dst, 1+rng.Intn(3)); err != nil {
				return nil, nil, err
			}
		}
	}
	classOffset := map[timeu.Time]timeu.Time{}
	for i := 0; i < g.NumTasks(); i++ {
		task := g.Task(model.TaskID(i))
		span := int64(task.Period)
		if shape&shapeWideOffsets != 0 {
			span *= 4
		}
		if shape&shapeEqualOffsets == 0 {
			task.Offset = timeu.Time(rng.Int63n(span))
			continue
		}
		off, ok := classOffset[task.Period]
		if !ok {
			off = timeu.Time(rng.Int63n(max(span/int64(timeu.Millisecond), 1))) * timeu.Millisecond
			classOffset[task.Period] = off
		}
		task.Offset = off
	}
	var offsets []timeu.Time
	if shape&shapeRunOffsets != 0 {
		for i := 0; i < g.NumTasks(); i++ {
			offsets = append(offsets, g.Task(model.TaskID(i)).Offset)
		}
		waters.RandomOffsets(g, rng)
	}
	return g, offsets, g.Validate()
}

// schedulesAbove64 reports whether a task of g runs on ECU 64 or later.
func schedulesAbove64(g *model.Graph) bool {
	for i := 0; i < g.NumTasks(); i++ {
		if g.Task(model.TaskID(i)).ECU >= 64 {
			return true
		}
	}
	return false
}

// matchReference runs the pooled and the reference engine on g and
// fails unless their Stats and observer traces are identical. A config
// with per-run offsets also runs through sim.Batch with the offsets in
// BatchRun.
func matchReference(t *testing.T, label string, g *model.Graph, cfg sim.Config) {
	t.Helper()
	refObs := &simTraceObserver{}
	refCfg := cfg
	refCfg.Observers = []sim.Observer{refObs}
	ref, err := sim.RunReference(g, refCfg)
	if err != nil {
		t.Fatalf("%s: reference engine: %v", label, err)
	}
	check := func(engine string, got *sim.Stats, obs *simTraceObserver) {
		t.Helper()
		for i := 0; i < min(len(obs.lines), len(refObs.lines)); i++ {
			if obs.lines[i] != refObs.lines[i] {
				t.Fatalf("%s (exec %s): traces diverge at event %d:\n%-10s %s\nreference: %s",
					label, cfg.Exec.Name(), i, engine+":", obs.lines[i], refObs.lines[i])
			}
		}
		if len(obs.lines) != len(refObs.lines) {
			t.Fatalf("%s: trace lengths diverge: %s %d vs reference %d", label, engine, len(obs.lines), len(refObs.lines))
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("%s (exec %s): stats diverge\n%-10s %+v\nreference: %+v", label, cfg.Exec.Name(), engine+":", got, ref)
		}
	}

	fastObs := &simTraceObserver{}
	fastCfg := cfg
	fastCfg.Observers = []sim.Observer{fastObs}
	fast, err := sim.Run(g, fastCfg)
	if err != nil {
		t.Fatalf("%s: pooled engine: %v", label, err)
	}
	check("pooled", fast, fastObs)
	if cfg.Offsets == nil {
		return
	}
	base := cfg
	base.Offsets = nil
	batch, err := sim.NewBatch(g, base)
	if err != nil {
		t.Fatalf("%s: batch: %v", label, err)
	}
	batchObs := &simTraceObserver{}
	res, err := batch.Run(sim.BatchRun{Seed: cfg.Seed, Offsets: cfg.Offsets, Observers: []sim.Observer{batchObs}})
	if err != nil {
		t.Fatalf("%s: batch run: %v", label, err)
	}
	check("batch", res.Stats, batchObs)
}

// TestPooledEngineCalendarMatchesReference is the differential harness
// of the calendar's rings and the dispatch set: on workloads with
// offsets over several periods, equal offsets within a class, sporadic
// tasks inside periodic classes and more than 64 ECUs, alone and
// combined, and with offsets passed per run, under every exec model,
// the pooled engine must match the reference engine. Runs with a deterministic exec model also replay
// with jump-ahead armed against full execution, so the calendar's
// fingerprint (a merge of the rings) and its shift are checked on
// states the insertion step has reordered.
func TestPooledEngineCalendarMatchesReference(t *testing.T) {
	shapes := []int{
		shapeWideOffsets,
		shapeEqualOffsets,
		shapeSporadicMix,
		shapeManyECUs,
		shapeWideOffsets | shapeSporadicMix | shapeManyECUs,
		shapeEqualOffsets | shapeWideOffsets | shapeManyECUs,
		shapeRunOffsets,
		shapeRunOffsets | shapeWideOffsets | shapeSporadicMix,
	}
	rng := rand.New(rand.NewSource(2029))
	engaged := 0
	for si, shape := range shapes {
		// A many-ECU graph carries 66–89 tasks, so fewer trials.
		trials := 25
		if shape&shapeManyECUs != 0 {
			trials = 8
		}
		for trial := 0; trial < trials; trial++ {
			g, offsets, err := calendarGraph(rng, 6+rng.Intn(24), 2+rng.Intn(4), shape)
			if err != nil {
				t.Fatalf("shape %#x trial %d: %v", shape, trial, err)
			}
			if shape&shapeManyECUs != 0 && !schedulesAbove64(g) {
				t.Fatalf("shape %#x trial %d: no task runs on an ECU past the touched set's first word", shape, trial)
			}
			label := fmt.Sprintf("shape %#x trial %d", shape, trial)
			exec := execModels[(si+trial)%len(execModels)]
			cfg := sim.Config{Horizon: timeu.Second, Exec: exec, Seed: rng.Int63(), Offsets: offsets}
			matchReference(t, label, g, cfg)

			if _, ok := exec.(sim.DeterministicExec); !ok {
				continue
			}
			cfg.Horizon = 2 * timeu.Second
			jumped, js := runJumpTrial(t, g, cfg, uniformWarmup(100*timeu.Millisecond), false)
			full, _ := runJumpTrial(t, g, cfg, uniformWarmup(100*timeu.Millisecond), true)
			if !reflect.DeepEqual(jumped, full) {
				t.Fatalf("%s: jumped run diverges from full execution (jump %+v)\njumped: %+v\nfull:   %+v", label, js, jumped, full)
			}
			if js.Engaged {
				engaged++
			}
		}
	}
	if engaged == 0 {
		t.Error("no jump engaged: the ring fingerprint and shift went unchecked")
	}
	t.Logf("%d jumped runs matched full execution", engaged)
}

// FuzzEngineMatchesReference drives the pooled engine against the
// reference engine on fuzzed graphs: size, ECU count, shape flags (the
// calendar edges plus LET, mixed semantics, buffered edges, zero BCET
// and per-run offsets) and exec model all come from the input.
func FuzzEngineMatchesReference(f *testing.F) {
	seeds := []struct {
		seed    int64
		n, ecus uint8
		shape   uint16
		exec    uint8
	}{
		{1, 12, 3, shapeWideOffsets, 0},
		{2, 15, 4, shapeEqualOffsets, 1},
		{3, 20, 4, shapeSporadicMix, 2},
		{4, 30, 70, shapeManyECUs, 3},
		{5, 18, 3, shapeWideOffsets | shapeEqualOffsets, 4},
		{6, 14, 2, shapeZeroBCET, 1},
		{7, 14, 2, shapeZeroBCET | shapeEqualOffsets, 2},
		{8, 16, 3, shapeLET | shapeWideOffsets, 0},
		{9, 16, 3, shapeMixedLET | shapeSporadicMix, 3},
		{10, 16, 4, shapeBuffered | shapeWideOffsets, 4},
		{11, 35, 90, shapeManyECUs | shapeZeroBCET | shapeBuffered | shapeMixedLET, 1},
		{12, 10, 1, shapeLET | shapeZeroBCET | shapeEqualOffsets, 1},
		{13, 14, 3, shapeRunOffsets, 2},
		{14, 18, 4, shapeRunOffsets | shapeWideOffsets | shapeEqualOffsets, 3},
		{15, 16, 3, shapeRunOffsets | shapeMixedLET | shapeBuffered, 0},
	}
	for _, s := range seeds {
		f.Add(s.seed, s.n, s.ecus, s.shape, s.exec)
	}
	f.Fuzz(func(t *testing.T, seed int64, n, ecus uint8, shape uint16, exec uint8) {
		rng := rand.New(rand.NewSource(seed))
		g, offsets, err := calendarGraph(rng, 3+int(n%40), 1+int(ecus%96), int(shape))
		if err != nil {
			t.Skip(err)
		}
		cfg := sim.Config{
			Horizon: 300 * timeu.Millisecond,
			Exec:    execModels[int(exec)%len(execModels)],
			Seed:    seed,
			Offsets: offsets,
		}
		matchReference(t, fmt.Sprintf("seed %d n %d ecus %d shape %#x", seed, n, ecus, shape), g, cfg)
	})
}
