package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"time"

	disparity "repro"
	"repro/internal/chains"
	"repro/internal/model"
	"repro/internal/randgraph"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/timeu"
	"repro/internal/waters"
)

// workload is one benchmark input family and the timed operation run on
// each of its inputs. Inputs are pure functions of (seed, op index), so
// op i of a seed always sees the same graph, and no two ops of a run
// share one.
type workload struct {
	name string
	why  string
	// gen builds input i outside the timed region: generation, the
	// schedulability filter and JSON serialization.
	gen func(seed int64, i int) (*input, error)
	// op is the timed operation: calls into the public facade only.
	op func(in *input) (*result, error)
	// check verifies one result outside the timed region and returns
	// the violated invariants.
	check func(in *input, r *result) []string
	// greedyRounds and maxChains are the arguments of the workload's
	// analysis calls; the traced run's layer probes reuse them.
	greedyRounds, maxChains int
	// probe is the simulation the traced run times on every input (the
	// workload's own simulation where its op has one).
	probe simSpec
}

// simSpec shapes one simulated run.
type simSpec struct {
	horizon, warmup timeu.Time
	exec            sim.ExecModel
	// latency adds a LatencyObserver on the analyzed task next to the
	// DisparityObserver.
	latency bool
}

// input is one op's graph: the JSON bytes the timed calls parse, plus
// what generation decided about it.
type input struct {
	index int
	data  []byte
	// graph is the generated graph. Only sim-periodic's op reads it
	// (its op starts at the simulator); checks read it everywhere.
	graph   *model.Graph
	task    model.TaskID
	sources []model.TaskID
	// runs are the op's simulated runs, drawn at generation.
	runs []simRun
	// bound is min(S-diff, P-diff) computed at generation for workloads
	// whose op does not analyze (sim-periodic's Sim ≤ bound check).
	bound timeu.Time
}

type simRun struct {
	seed    int64
	offsets []timeu.Time
}

// result is what one op returns, kept for the checks and the digest.
type result struct {
	pdiff, sdiff timeu.Time
	pairs        int
	truncated    bool
	greedy       *disparity.GreedyResult
	sims         []simOutcome
	// Stage durations inside the op, for the per-stage detail lines.
	verdict, optimize, simulate time.Duration
}

// simOutcome is one simulated run: its statistics and observers.
type simOutcome struct {
	jobs, overruns int64
	end            timeu.Time
	channels       []sim.ChannelStats
	jump           sim.JumpStats
	disp           *sim.DisparityObserver
	lat            *sim.LatencyObserver
}

const (
	fleetZones     = 8
	fleetECUs      = 4
	fleetDepth     = 6
	fleetTail      = 2
	fleetPipesMin  = 7
	fleetPipesSpan = 5 // 7–11 pipelines per ECU

	layers       = 5
	layerMin     = 5
	layerSpan    = 3 // widths 5–7
	layerFanout  = 3
	platformECUs = 4

	fig6TaskStep  = 5
	fig6Points    = 7 // n = 5, 10, …, 35
	fig6Tail      = 3
	fig6MaxChains = 1 << 14
	fig6Rounds    = 8
	fig6Runs      = 10

	periodicTasks = 25
	periodicRuns  = 20

	// genAttempts bounds the redraws of one input; every workload
	// finds a usable graph within a few.
	genAttempts = 100
)

// workloads is the benchmark's workload set, in BENCHMARK.json order.
var workloads = []*workload{
	{
		name:  "fleet-verify",
		why:   "Zonal fleet verdict, 1.6k-2.5k tasks and 25k-62k sink pairs: WCRT and JSON load dominate and pair descent is small, so sched and model changes show here",
		gen:   genFleet,
		op:    opVerdict,
		check: checkVerdict,
		probe: analysisSim,
	},
	{
		name:  "fusion-dense",
		why:   "Layered fusion graph, ~500 chains and ~120k sink pairs: pair descent dominates the verdict and WCRT is ~0; then the greedy buffer optimizer",
		gen:   genLayered,
		op:    opVerdictOptimize,
		check: checkVerdict,
		probe: analysisSim,
	},
	{
		name:         "fig6-sweep",
		why:          "The paper's Fig. 6(a) point: cached analysis, P/S-diff, greedy S-diff-B and ten random-exec simulations where jump-ahead cannot engage",
		gen:          genFig6,
		op:           opFig6,
		check:        checkVerdict,
		greedyRounds: fig6Rounds,
		maxChains:    fig6MaxChains,
		probe:        fig6Sim,
	},
	{
		name:  "sim-periodic",
		why:   "25-task WCET simulation over 60 s where steady-state jump-ahead engages, so cycle fingerprinting and fast-forward dominate",
		gen:   genPeriodic,
		op:    opPeriodic,
		check: checkPeriodic,
		probe: periodicSim,
	},
}

var (
	// analysisSim is the traced run's simulation probe for the
	// analysis workloads, whose ops do not simulate.
	analysisSim = simSpec{horizon: timeu.Second, exec: sim.WCETExec{}}
	// fig6Sim is Fig. 6(a)'s simulation: random extreme execution
	// times, where jump-ahead cannot engage.
	fig6Sim = simSpec{horizon: 5 * timeu.Second, warmup: timeu.Second, exec: sim.ExtremesExec{P: 0.5}}
	// periodicSim runs at WCET over a long horizon, where it can.
	periodicSim = simSpec{horizon: 60 * timeu.Second, warmup: timeu.Second, exec: sim.WCETExec{}, latency: true}
)

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// opRNG derives the random stream of input i from the run seed
// (splitmix64 of the pair, so neighbouring seeds and indices do not
// share streams).
func opRNG(seed int64, i int) *rand.Rand {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return rand.New(rand.NewSource(int64(z ^ z>>31)))
}

// schedulable is the generation-time NP-FP filter, so a timed
// "unschedulable" error is a real failure.
func schedulable(g *model.Graph) bool {
	return sched.Analyze(g, sched.NonPreemptiveFP).Schedulable
}

// usableChains reports whether the task has at least two chains and no
// truncation under the cap: the disparity is then non-trivial and the
// bound covers every pair.
func usableChains(g *model.Graph, task model.TaskID, maxChains int) bool {
	idx := chains.NewIndex(g, task, maxChains)
	return !idx.Truncated() && idx.NumChains() >= 2
}

// newInput serializes the graph and draws the seeds and release offsets
// of its simulated runs (one for the analysis workloads, whose only
// simulation is the traced run's probe).
func newInput(i int, g *model.Graph, task model.TaskID, rng *rand.Rand, runs int) (*input, error) {
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		return nil, fmt.Errorf("serializing input %d: %w", i, err)
	}
	in := &input{index: i, data: buf.Bytes(), graph: g, task: task, runs: make([]simRun, runs)}
	for r := range in.runs {
		in.runs[r].offsets = waters.DrawOffsets(g, rng, nil)
		in.runs[r].seed = rng.Int63()
	}
	return in, nil
}

// genFleet draws a zonal fleet with 7–11 pipelines per ECU, cycling the
// pipeline count with the op index so every run covers the sizes
// evenly.
func genFleet(seed int64, i int) (*input, error) {
	rng := opRNG(seed, i)
	cfg := disparity.FleetConfig{
		Zones: fleetZones, ECUsPerZone: fleetECUs, PipesPerECU: fleetPipesMin + i%fleetPipesSpan,
		ProcDepth: fleetDepth, TailLen: fleetTail,
	}
	for attempt := 0; attempt < genAttempts; attempt++ {
		g, fusion, err := disparity.GenerateFleet(cfg, disparity.GenConfig{Seed: rng.Int63()})
		if err != nil {
			return nil, fmt.Errorf("generating fleet input %d: %w", i, err)
		}
		if schedulable(g) && usableChains(g, fusion, 0) {
			return newInput(i, g, fusion, rng, 1)
		}
	}
	return nil, fmt.Errorf("no usable fleet input %d in %d attempts", i, genAttempts)
}

// genLayered draws a five-layer WATERS graph with fanout 3; the
// analyzed task is the single sink. The widths (5–7 per layer) step
// through all 3^5 combinations with the op index, so every run covers
// them evenly.
func genLayered(seed int64, i int) (*input, error) {
	rng := opRNG(seed, i)
	widths := make([]int, layers)
	for l, k := 0, i; l < layers; l, k = l+1, k/layerSpan {
		widths[l] = layerMin + k%layerSpan
	}
	for attempt := 0; attempt < genAttempts; attempt++ {
		g, err := randgraph.Layered(widths, layerFanout, randgraph.Config{ECUs: platformECUs, StimulusSources: true}, rng)
		if err != nil {
			return nil, fmt.Errorf("generating layered input %d: %w", i, err)
		}
		waters.Populate(g, rng)
		sink := g.Sinks()[0]
		if schedulable(g) && usableChains(g, sink, 0) {
			return newInput(i, g, sink, rng, 1)
		}
	}
	return nil, fmt.Errorf("no usable layered input %d in %d attempts", i, genAttempts)
}

// genFig6 draws one Fig. 6(a) graph the way the experiment harness
// does: n tasks of which a 3-task shared tail, GNM with m = 2·(n − tail)
// edges, WATERS parameters, and ten random-offset runs. n cycles
// through the sweep's points with the op index.
func genFig6(seed int64, i int) (*input, error) {
	rng := opRNG(seed, i)
	n := fig6TaskStep * (1 + i%fig6Points)
	tail := fig6Tail
	if n-tail < 5 {
		tail = max(n-5, 0)
	}
	part := n - tail
	for attempt := 0; attempt < genAttempts; attempt++ {
		g, err := randgraph.GNM(part, 2*part, randgraph.Config{ECUs: platformECUs, StimulusSources: true, TailLen: tail}, rng)
		if err != nil {
			continue
		}
		waters.Populate(g, rng)
		sink := g.Sinks()[0]
		if !schedulable(g) || !usableChains(g, sink, fig6MaxChains) {
			continue
		}
		return newInput(i, g, sink, rng, fig6Runs)
	}
	return nil, fmt.Errorf("no usable fig6 input %d in %d attempts", i, genAttempts)
}

// genPeriodic draws a 25-task GNM WATERS graph with twenty offset
// assignments and bounds its sink's disparity for the Sim ≤ bound check.
func genPeriodic(seed int64, i int) (*input, error) {
	rng := opRNG(seed, i)
	for attempt := 0; attempt < genAttempts; attempt++ {
		g, err := randgraph.GNM(periodicTasks, 2*periodicTasks, randgraph.Config{ECUs: platformECUs, StimulusSources: true}, rng)
		if err != nil {
			continue
		}
		waters.Populate(g, rng)
		sink := g.Sinks()[0]
		if !schedulable(g) || !usableChains(g, sink, 0) {
			continue
		}
		in, err := newInput(i, g, sink, rng, periodicRuns)
		if err != nil {
			return nil, err
		}
		_, _, r, err := verdict(bytes.NewReader(in.data), sink, false, 0)
		if err != nil {
			return nil, fmt.Errorf("bounding periodic input %d: %w", i, err)
		}
		in.bound = min(r.sdiff, r.pdiff)
		in.sources = g.Sources()
		return in, nil
	}
	return nil, fmt.Errorf("no usable periodic input %d in %d attempts", i, genAttempts)
}

// verdict is the paper's verification question through the facade:
// load the graph, analyze it, and bound the task's disparity with S-diff
// and P-diff.
func verdict(data io.Reader, task model.TaskID, cached bool, maxChains int) (*disparity.Graph, *disparity.Analysis, *result, error) {
	g, err := disparity.ReadGraph(data)
	if err != nil {
		return nil, nil, nil, err
	}
	var a *disparity.Analysis
	if cached {
		a, err = disparity.AnalyzeWithCache(g, disparity.NewAnalysisCache())
	} else {
		a, err = disparity.Analyze(g)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	sd, err := a.DisparityBound(task, disparity.SDiff, maxChains)
	if err != nil {
		return nil, nil, nil, err
	}
	pd, err := a.DisparityBound(task, disparity.PDiff, maxChains)
	if err != nil {
		return nil, nil, nil, err
	}
	return g, a, &result{
		sdiff: sd.Bound, pdiff: pd.Bound, pairs: sd.NumPairs,
		truncated: sd.Truncated || pd.Truncated,
	}, nil
}

func opVerdict(in *input) (*result, error) {
	t0 := time.Now()
	_, _, r, err := verdict(bytes.NewReader(in.data), in.task, false, 0)
	if err != nil {
		return nil, err
	}
	r.verdict = time.Since(t0)
	return r, nil
}

func opVerdictOptimize(in *input) (*result, error) {
	t0 := time.Now()
	_, a, r, err := verdict(bytes.NewReader(in.data), in.task, false, 0)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	r.greedy, err = a.OptimizeTaskGreedy(in.task, 0, 0)
	if err != nil {
		return nil, err
	}
	r.optimize = time.Since(t1)
	r.verdict = t1.Sub(t0)
	return r, nil
}

func opFig6(in *input) (*result, error) {
	t0 := time.Now()
	g, a, r, err := verdict(bytes.NewReader(in.data), in.task, true, fig6MaxChains)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	r.greedy, err = a.OptimizeTaskGreedy(in.task, fig6MaxChains, fig6Rounds)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	r.sims, err = simulate(g, in, fig6Sim)
	if err != nil {
		return nil, err
	}
	r.verdict, r.optimize, r.simulate = t1.Sub(t0), t2.Sub(t1), time.Since(t2)
	return r, nil
}

func opPeriodic(in *input) (*result, error) {
	t0 := time.Now()
	sims, err := simulate(in.graph, in, periodicSim)
	if err != nil {
		return nil, err
	}
	return &result{sims: sims, simulate: time.Since(t0)}, nil
}

// simulate runs every drawn run of the input through one sim.Batch.
func simulate(g *model.Graph, in *input, spec simSpec) ([]simOutcome, error) {
	b, err := sim.NewBatch(g, sim.Config{Horizon: spec.horizon, Exec: spec.exec})
	if err != nil {
		return nil, err
	}
	out := make([]simOutcome, len(in.runs))
	for r := range in.runs {
		if err := runOne(b, in, in.runs[r], spec, &out[r]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runOne executes one drawn run on the batch with the spec's observers.
func runOne(b *sim.Batch, in *input, run simRun, spec simSpec, out *simOutcome) error {
	out.disp = sim.NewDisparityObserver(spec.warmup, in.task)
	obs := []sim.Observer{out.disp}
	if spec.latency {
		out.lat = sim.NewLatencyObserver(in.task, in.sources, spec.warmup)
		obs = append(obs, out.lat)
	}
	res, err := b.Run(sim.BatchRun{Seed: run.seed, Offsets: run.offsets, Observers: obs})
	if err != nil {
		return err
	}
	out.jobs, out.overruns, out.end = res.Stats.Jobs, res.Stats.Overruns, res.Stats.End
	out.channels = res.Stats.Channels
	out.jump = res.Jump
	return nil
}
