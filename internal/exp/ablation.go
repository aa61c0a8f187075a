package exp

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/backward"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/offsetopt"
	"repro/internal/randgraph"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace/span"
	"repro/internal/waters"
)

// The ablations quantify the reproduction's design choices:
//
//   - AblationBackward: how much the paper's non-preemptive backward-time
//     bounds (Lemmas 4/5) gain over the scheduler-agnostic Dürr-style
//     baseline, measured on the S-diff task bound;
//   - AblationTail: how the shared-pipeline-tail length drives the
//     P-diff/S-diff separation of Fig. 6(a);
//   - AblationExec: how the simulator's execution-time model affects the
//     observed disparity (which exec model is the most adversarial);
//   - AblationSemantics: implicit communication vs LET;
//   - AblationAdversarial: random vs disparity-maximizing offsets;
//   - AblationUtilization (utilization.go): the Lemma-4/5 refinement as
//     load grows;
//   - AblationPriority / AblationGreedyBuffers (design.go): priority
//     assignment and multi-pair buffer insertion.
//
// Like the Fig. 6 panels, each ablation is a sweepSpec on the shared
// driver: per-graph rng streams are derived from (pi, gi), so the
// bounded-worker fan-out leaves every table bit-identical to the old
// serial loops (pinned by sweep_identity_test.go).

// sdiffBound evaluates the S-diff task bound of a throwaway analysis,
// the common step of the backward/utilization/priority ablations.
// ok=false rejects the graph.
func sdiffBound(cfg Config, a *core.Analysis, task model.TaskID) (*core.TaskDisparity, bool) {
	td, err := a.DisparityBound(task, core.SDiff, cfg.MaxChains)
	if err != nil {
		return nil, false
	}
	if td.Truncated {
		cfg.noteTruncation("ablation")
		return nil, false
	}
	return td, true
}

type backwardResult struct {
	np, du float64
}

// AblationBackward compares the S-diff task bound computed with the
// paper's NP-FP backward bounds against the Dürr-style baseline, per
// task count. Columns (ms): S-diff(NP), S-diff(Dürr).
func AblationBackward(cfg Config) (*Table, error) {
	tbl := &Table{
		Title:   "Ablation: NP-FP backward bounds (Lemmas 4/5) vs scheduler-agnostic baseline (ms)",
		XLabel:  "tasks",
		Columns: []string{colSDiff + "(NP)", colSDiff + "(Duerr)"},
	}
	err := runSweep(cfg, sweepSpec[backwardResult]{
		prefix: "n=",
		eval: func(ctx context.Context, tk *span.Track, n, pi, gi int) (backwardResult, bool, error) {
			g := genForPoint(cfg, n, pi, gi)
			if g == nil {
				return backwardResult{}, false, nil
			}
			res := sched.Analyze(g, sched.NonPreemptiveFP)
			sink := g.Sinks()[0]

			np := core.NewWithBackward(g, backward.NewAnalyzer(g, res, backward.NonPreemptive))
			du := core.NewWithBackward(g, backward.NewAnalyzer(g, res, backward.Duerr))
			npTd, ok := sdiffBound(cfg, np, sink)
			if !ok {
				return backwardResult{}, false, nil
			}
			duTd, ok := sdiffBound(cfg, du, sink)
			if !ok {
				return backwardResult{}, false, nil
			}
			if npTd.NumPairs == 0 {
				return backwardResult{}, false, nil
			}
			return backwardResult{
				np: npTd.Bound.Milliseconds(),
				du: duTd.Bound.Milliseconds(),
			}, true, nil
		},
		point: func(n int, results []backwardResult) error {
			var nps, dus []float64
			for _, r := range results {
				nps = append(nps, r.np)
				dus = append(dus, r.du)
			}
			tbl.AddRow(n, mean(nps), mean(dus))
			if cfg.Log != nil {
				fmt.Fprintf(cfg.Log, "ablation-backward n=%d: NP=%.3f Duerr=%.3f (%d graphs)\n",
					n, mean(nps), mean(dus), len(nps))
			}
			return nil
		},
		emptyErr: func(n int) error { return fmt.Errorf("exp: no usable graphs at n=%d", n) },
	})
	if err != nil {
		return nil, err
	}
	return tbl, nil
}

type tailResult struct {
	pd, sd float64
}

// AblationTail sweeps the shared-pipeline-tail length (the X axis) on
// fixed-size graphs and reports the mean P-diff and S-diff task bounds.
// It quantifies the workload design decision documented in DESIGN.md:
// with no tail the two bounds coincide; the separation grows with the
// shared suffix.
func AblationTail(cfg Config, totalTasks int) (*Table, error) {
	tbl := &Table{
		Title:   fmt.Sprintf("Ablation: shared tail length on %d-task graphs (ms)", totalTasks),
		XLabel:  "tail",
		Columns: []string{colPDiff, colSDiff},
	}
	err := runSweep(cfg, sweepSpec[tailResult]{
		prefix: "tail=",
		checkPoint: func(tail int) error {
			if totalTasks-tail < 5 {
				return fmt.Errorf("exp: tail %d leaves fewer than 5 random tasks", tail)
			}
			return nil
		},
		eval: func(ctx context.Context, tk *span.Track, tail, pi, gi int) (tailResult, bool, error) {
			sub := cfg
			sub.TailLen = tail
			g := genForPoint(sub, totalTasks, pi, gi)
			if g == nil {
				return tailResult{}, false, nil
			}
			a, err := core.New(g)
			if err != nil {
				return tailResult{}, false, nil
			}
			sink := g.Sinks()[0]
			pd, err := a.DisparityBound(sink, core.PDiff, cfg.MaxChains)
			if err != nil {
				return tailResult{}, false, nil
			}
			sd, err := a.DisparityBound(sink, core.SDiff, cfg.MaxChains)
			if err != nil || pd.NumPairs == 0 {
				return tailResult{}, false, nil
			}
			if pd.Truncated || sd.Truncated {
				cfg.noteTruncation(fmt.Sprintf("tail=%d graph %d", tail, gi))
				return tailResult{}, false, nil
			}
			return tailResult{pd: pd.Bound.Milliseconds(), sd: sd.Bound.Milliseconds()}, true, nil
		},
		point: func(tail int, results []tailResult) error {
			var pds, sds []float64
			for _, r := range results {
				pds = append(pds, r.pd)
				sds = append(sds, r.sd)
			}
			tbl.AddRow(tail, mean(pds), mean(sds))
			return nil
		},
		emptyErr: func(tail int) error { return fmt.Errorf("exp: no usable graphs at tail=%d", tail) },
	})
	if err != nil {
		return nil, err
	}
	return tbl, nil
}

type execResult struct {
	sims [4]float64
	sd   float64
}

// AblationExec compares the maximum disparity observed under the four
// execution-time models against the S-diff bound, per task count.
// Columns (ms): Sim-wcet, Sim-bcet, Sim-uniform, Sim-extremes, S-diff.
func AblationExec(cfg Config) (*Table, error) {
	models := []sim.ExecModel{sim.WCETExec{}, sim.BCETExec{}, sim.UniformExec{}, sim.ExtremesExec{P: 0.5}}
	tbl := &Table{
		Title:   "Ablation: execution-time models vs the S-diff bound (ms)",
		XLabel:  "tasks",
		Columns: []string{colSim + "-wcet", colSim + "-bcet", colSim + "-uniform", colSim + "-extremes", colSDiff},
	}
	err := runSweep(cfg, sweepSpec[execResult]{
		prefix: "n=",
		eval: func(ctx context.Context, tk *span.Track, n, pi, gi int) (execResult, bool, error) {
			g := genForPoint(cfg, n, pi, gi)
			if g == nil {
				return execResult{}, false, nil
			}
			a, err := core.New(g)
			if err != nil {
				return execResult{}, false, nil
			}
			sink := g.Sinks()[0]
			sd, ok := sdiffBound(cfg, a, sink)
			if !ok || sd.NumPairs == 0 {
				return execResult{}, false, nil
			}
			r := execResult{sd: sd.Bound.Milliseconds()}
			rng := rand.New(rand.NewSource(cfg.Seed + int64(pi*31+gi)))
			for mi, m := range models {
				sub := cfg
				sub.Exec = m
				v, err := simulateMaxDisparity(ctx, sub, tk, g, sink, rng)
				if err != nil {
					return execResult{}, false, err
				}
				r.sims[mi] = v.Milliseconds()
			}
			return r, true, nil
		},
		point: func(n int, results []execResult) error {
			sums := make([][]float64, len(models))
			var sds []float64
			for _, r := range results {
				for mi := range models {
					sums[mi] = append(sums[mi], r.sims[mi])
				}
				sds = append(sds, r.sd)
			}
			tbl.AddRow(n, mean(sums[0]), mean(sums[1]), mean(sums[2]), mean(sums[3]), mean(sds))
			return nil
		},
		emptyErr: func(n int) error { return fmt.Errorf("exp: no usable graphs at n=%d", n) },
	})
	if err != nil {
		return nil, err
	}
	return tbl, nil
}

type semanticsResult struct {
	sdI, simI, sdL, simL float64
}

// AblationSemantics compares implicit communication against LET on the
// same workloads: the S-diff bound and the observed disparity under
// each, per task count. Columns (ms): S-diff(impl), Sim(impl),
// S-diff(LET), Sim(LET). LET removes sampling jitter but pays one full
// producer period per hop, so its bounds typically sit higher while its
// observed disparity is deterministic.
func AblationSemantics(cfg Config) (*Table, error) {
	tbl := &Table{
		Title:   "Ablation: implicit communication vs LET (ms)",
		XLabel:  "tasks",
		Columns: []string{colSDiff + "(impl)", colSim + "(impl)", colSDiff + "(LET)", colSim + "(LET)"},
	}
	err := runSweep(cfg, sweepSpec[semanticsResult]{
		prefix: "n=",
		eval: func(ctx context.Context, tk *span.Track, n, pi, gi int) (semanticsResult, bool, error) {
			g := genForPoint(cfg, n, pi, gi)
			if g == nil {
				return semanticsResult{}, false, nil
			}
			sink := g.Sinks()[0]
			rng := rand.New(rand.NewSource(cfg.Seed + int64(pi*37+gi)))
			evalOne := func(gr *model.Graph) (bound, simv float64, ok bool, err error) {
				a, err := core.New(gr)
				if err != nil {
					return 0, 0, false, nil
				}
				sd, ok := sdiffBound(cfg, a, sink)
				if !ok || sd.NumPairs == 0 {
					return 0, 0, false, nil
				}
				v, err := simulateMaxDisparity(ctx, cfg, tk, gr, sink, rng)
				if err != nil {
					return 0, 0, false, err
				}
				return sd.Bound.Milliseconds(), v.Milliseconds(), true, nil
			}
			bi, si, ok, err := evalOne(g)
			if err != nil || !ok {
				return semanticsResult{}, false, err
			}
			let := g.Clone()
			for i := 0; i < let.NumTasks(); i++ {
				let.Task(model.TaskID(i)).Sem = model.LET
			}
			bl, sl, ok, err := evalOne(let)
			if err != nil || !ok {
				return semanticsResult{}, false, err
			}
			return semanticsResult{sdI: bi, simI: si, sdL: bl, simL: sl}, true, nil
		},
		point: func(n int, results []semanticsResult) error {
			var sdI, simI, sdL, simL []float64
			for _, r := range results {
				sdI = append(sdI, r.sdI)
				simI = append(simI, r.simI)
				sdL = append(sdL, r.sdL)
				simL = append(simL, r.simL)
			}
			tbl.AddRow(n, mean(sdI), mean(simI), mean(sdL), mean(simL))
			return nil
		},
		emptyErr: func(n int) error { return fmt.Errorf("exp: no usable graphs at n=%d", n) },
	})
	if err != nil {
		return nil, err
	}
	return tbl, nil
}

type adversarialResult struct {
	rnd, adv, sd float64
}

// AblationAdversarial quantifies how much of the Fig. 6(c) bound-vs-Sim
// gap is an artifact of random offsets: per two-chain length it reports
// the S-diff bound, the random-offset Sim (the paper's procedure), and
// an adversarial Sim where release offsets are searched to MAXIMIZE the
// observed disparity. Columns (ms): Sim(random), Sim(adversarial),
// S-diff.
func AblationAdversarial(cfg Config) (*Table, error) {
	tbl := &Table{
		Title:   "Ablation: random vs adversarial offsets on two-chain graphs (ms)",
		XLabel:  "chainlen",
		Columns: []string{colSim + "(random)", colSim + "(adv)", colSDiff},
	}
	err := runSweep(cfg, sweepSpec[adversarialResult]{
		prefix: "len=",
		eval: func(ctx context.Context, tk *span.Track, n, pi, gi int) (adversarialResult, bool, error) {
			rng := rand.New(rand.NewSource(cfg.Seed + 43 + int64(pi)*1_000_003 + int64(gi)*7_919))
			gcfg := randgraph.Config{ECUs: cfg.ECUs, StimulusSources: true}
			var g *model.Graph
			var la model.Chain
			for attempt := 0; attempt < 60; attempt++ {
				gg, l, _, err := randgraph.TwoChains(n, gcfg, rng)
				if err != nil {
					continue
				}
				waters.Populate(gg, rng)
				if res := sched.Analyze(gg, sched.NonPreemptiveFP); !res.Schedulable {
					continue
				}
				g, la = gg, l
				break
			}
			if g == nil {
				return adversarialResult{}, false, nil
			}
			sink := la.Tail()
			a, err := core.New(g)
			if err != nil {
				return adversarialResult{}, false, nil
			}
			sd, ok := sdiffBound(cfg, a, sink)
			if !ok {
				return adversarialResult{}, false, nil
			}
			random, err := simulateMaxDisparity(ctx, cfg, tk, g, sink, rng)
			if err != nil {
				return adversarialResult{}, false, err
			}
			adv, err := offsetopt.RandomRestarts(g, sink, offsetopt.Config{
				Direction: offsetopt.Maximize,
				Steps:     6,
				Rounds:    2,
				Exec:      cfg.Exec,
				Seeds:     2,
			}, 2, cfg.Seed+int64(gi))
			if err != nil {
				return adversarialResult{}, false, nil
			}
			return adversarialResult{
				rnd: random.Milliseconds(),
				adv: adv.After.Milliseconds(),
				sd:  sd.Bound.Milliseconds(),
			}, true, nil
		},
		point: func(n int, results []adversarialResult) error {
			var rnds, advs, sds []float64
			for _, r := range results {
				rnds = append(rnds, r.rnd)
				advs = append(advs, r.adv)
				sds = append(sds, r.sd)
			}
			tbl.AddRow(n, mean(rnds), mean(advs), mean(sds))
			if cfg.Log != nil {
				fmt.Fprintf(cfg.Log, "adversarial len=%d: rand=%.3f adv=%.3f bound=%.3f\n",
					n, mean(rnds), mean(advs), mean(sds))
			}
			return nil
		},
		emptyErr: func(n int) error { return fmt.Errorf("exp: no usable graphs at chain length %d", n) },
	})
	if err != nil {
		return nil, err
	}
	return tbl, nil
}

// genForPoint generates one schedulable WATERS GNM workload with the
// config's tail policy, or nil after repeated failures.
func genForPoint(cfg Config, n, pi, gi int) *model.Graph {
	rng := rand.New(rand.NewSource(cfg.Seed + 29 + int64(pi)*1_000_003 + int64(gi)*7_919))
	tail := cfg.TailLen
	if n-tail < 5 {
		tail = n - 5
	}
	if tail < 0 {
		tail = 0
	}
	gcfg := randgraph.Config{ECUs: cfg.ECUs, StimulusSources: true, TailLen: tail}
	for attempt := 0; attempt < 60; attempt++ {
		randPart := n - tail
		g, err := randgraph.GNM(randPart, int(cfg.EdgeFactor*float64(randPart)), gcfg, rng)
		if err != nil {
			continue
		}
		waters.Populate(g, rng)
		if res := sched.Analyze(g, sched.NonPreemptiveFP); !res.Schedulable {
			continue
		}
		return g
	}
	return nil
}
