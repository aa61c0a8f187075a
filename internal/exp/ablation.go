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

// AblationBackward compares the S-diff task bound computed with the
// paper's NP-FP backward bounds against the Dürr-style baseline, per
// task count. Columns (ms): S-diff(NP), S-diff(Dürr).
func AblationBackward(cfg Config) (*Table, error) {
	tbl := &Table{
		Title:   "Ablation: NP-FP backward bounds (Lemmas 4/5) vs scheduler-agnostic baseline (ms)",
		XLabel:  "tasks",
		Columns: []string{colSDiff + "(NP)", colSDiff + "(Duerr)"},
	}
	err := runSweep(cfg, sweepSpec{
		prefix: "n=",
		eval: func(ctx context.Context, cfg Config, tk *span.Track, n, pi, gi int) ([]float64, error) {
			g := genForPoint(cfg, n, pi, gi)
			if g == nil {
				return nil, nil
			}
			res := sched.Analyze(g, sched.NonPreemptiveFP)
			sink := g.Sinks()[0]

			np := core.NewWithBackward(g, backward.NewAnalyzer(g, res, backward.NonPreemptive))
			du := core.NewWithBackward(g, backward.NewAnalyzer(g, res, backward.Duerr))
			npTd, ok := sdiffBound(cfg, np, sink)
			if !ok {
				return nil, nil
			}
			duTd, ok := sdiffBound(cfg, du, sink)
			if !ok || npTd.NumPairs == 0 {
				return nil, nil
			}
			return []float64{npTd.Bound.Milliseconds(), duTd.Bound.Milliseconds()}, nil
		},
		tables: []*Table{tbl},
	})
	if err != nil {
		return nil, err
	}
	return tbl, nil
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
	err := runSweep(cfg, sweepSpec{
		prefix: "tail=",
		checkPoint: func(tail int) error {
			if totalTasks-tail < 5 {
				return fmt.Errorf("exp: tail %d leaves fewer than 5 random tasks", tail)
			}
			return nil
		},
		eval: func(ctx context.Context, cfg Config, tk *span.Track, tail, pi, gi int) ([]float64, error) {
			sub := cfg
			sub.TailLen = tail
			g := genForPoint(sub, totalTasks, pi, gi)
			if g == nil {
				return nil, nil
			}
			a, err := core.New(g)
			if err != nil {
				return nil, nil
			}
			sink := g.Sinks()[0]
			pd, err := a.DisparityBound(sink, core.PDiff, cfg.MaxChains)
			if err != nil {
				return nil, nil
			}
			sd, err := a.DisparityBound(sink, core.SDiff, cfg.MaxChains)
			if err != nil || pd.NumPairs == 0 {
				return nil, nil
			}
			if pd.Truncated || sd.Truncated {
				cfg.noteTruncation(fmt.Sprintf("tail=%d graph %d", tail, gi))
				return nil, nil
			}
			return []float64{pd.Bound.Milliseconds(), sd.Bound.Milliseconds()}, nil
		},
		tables: []*Table{tbl},
	})
	if err != nil {
		return nil, err
	}
	return tbl, nil
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
	err := runSweep(cfg, sweepSpec{
		prefix: "n=",
		eval: func(ctx context.Context, cfg Config, tk *span.Track, n, pi, gi int) ([]float64, error) {
			g := genForPoint(cfg, n, pi, gi)
			if g == nil {
				return nil, nil
			}
			a, err := core.New(g)
			if err != nil {
				return nil, nil
			}
			sink := g.Sinks()[0]
			sd, ok := sdiffBound(cfg, a, sink)
			if !ok || sd.NumPairs == 0 {
				return nil, nil
			}
			row := make([]float64, len(models), len(models)+1)
			rng := rand.New(rand.NewSource(cfg.Seed + int64(pi*31+gi)))
			for mi, m := range models {
				sub := cfg
				sub.Exec = m
				v, err := simulateMaxDisparity(ctx, sub, tk, g, sink, rng)
				if err != nil {
					return nil, err
				}
				row[mi] = v.Milliseconds()
			}
			return append(row, sd.Bound.Milliseconds()), nil
		},
		tables: []*Table{tbl},
	})
	if err != nil {
		return nil, err
	}
	return tbl, nil
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
	err := runSweep(cfg, sweepSpec{
		prefix: "n=",
		eval: func(ctx context.Context, cfg Config, tk *span.Track, n, pi, gi int) ([]float64, error) {
			g := genForPoint(cfg, n, pi, gi)
			if g == nil {
				return nil, nil
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
				return nil, err
			}
			let := g.Clone()
			for i := 0; i < let.NumTasks(); i++ {
				let.Task(model.TaskID(i)).Sem = model.LET
			}
			bl, sl, ok, err := evalOne(let)
			if err != nil || !ok {
				return nil, err
			}
			return []float64{bi, si, bl, sl}, nil
		},
		tables: []*Table{tbl},
	})
	if err != nil {
		return nil, err
	}
	return tbl, nil
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
	err := runSweep(cfg, sweepSpec{
		prefix: "len=",
		eval: func(ctx context.Context, cfg Config, tk *span.Track, n, pi, gi int) ([]float64, error) {
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
				graphsGenerated.Inc()
				if res := sched.Analyze(gg, sched.NonPreemptiveFP); !res.Schedulable {
					continue
				}
				g, la = gg, l
				break
			}
			if g == nil {
				return nil, nil
			}
			sink := la.Tail()
			a, err := core.New(g)
			if err != nil {
				return nil, nil
			}
			sd, ok := sdiffBound(cfg, a, sink)
			if !ok {
				return nil, nil
			}
			random, err := simulateMaxDisparity(ctx, cfg, tk, g, sink, rng)
			if err != nil {
				return nil, err
			}
			adv, err := offsetopt.RandomRestarts(g, sink, offsetopt.Config{
				Direction: offsetopt.Maximize,
				Steps:     6,
				Rounds:    2,
				Exec:      cfg.Exec,
				Seeds:     2,
			}, 2, cfg.Seed+int64(gi))
			if err != nil {
				return nil, nil
			}
			return []float64{random.Milliseconds(), adv.After.Milliseconds(), sd.Bound.Milliseconds()}, nil
		},
		tables: []*Table{tbl},
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
		graphsGenerated.Inc()
		if res := sched.Analyze(g, sched.NonPreemptiveFP); !res.Schedulable {
			continue
		}
		return g
	}
	return nil
}
