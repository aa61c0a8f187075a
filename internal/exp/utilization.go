package exp

import (
	"context"
	"fmt"

	"repro/internal/backward"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/timeu"
	"repro/internal/trace/span"
)

type utilizationResult struct {
	np, du float64
}

// AblationUtilization sweeps the per-ECU WCET utilization (X axis in
// percent) on fixed-topology workloads and reports the mean S-diff task
// bound under the paper's NP-FP backward bounds (Lemmas 4/5) and under
// the scheduler-agnostic baseline. WATERS execution times are tiny
// relative to periods (utilization ≈ 1%), which hides the refinement;
// scaling them up makes response times — and the refinement — visible.
// Columns (ms): S-diff(NP), S-diff(Duerr).
func AblationUtilization(cfg Config) (*Table, error) {
	tbl := &Table{
		Title:   "Ablation: NP-FP vs baseline backward bounds across utilization (%) (ms)",
		XLabel:  "util%",
		Columns: []string{colSDiff + "(NP)", colSDiff + "(Duerr)"},
	}
	err := runSweep(cfg, sweepSpec[utilizationResult]{
		prefix: "util=",
		checkPoint: func(upct int) error {
			if upct <= 0 || upct >= 100 {
				return fmt.Errorf("exp: utilization %d%% out of (0, 100)", upct)
			}
			return nil
		},
		eval: func(ctx context.Context, tk *span.Track, upct, pi, gi int) (utilizationResult, bool, error) {
			g := genUtilization(cfg, 16, float64(upct)/100, pi, gi)
			if g == nil {
				return utilizationResult{}, false, nil
			}
			res := sched.Analyze(g, sched.NonPreemptiveFP)
			sink := g.Sinks()[0]
			np := core.NewWithBackward(g, backward.NewAnalyzer(g, res, backward.NonPreemptive))
			du := core.NewWithBackward(g, backward.NewAnalyzer(g, res, backward.Duerr))
			npTd, ok := sdiffBound(cfg, np, sink)
			if !ok || npTd.NumPairs == 0 {
				return utilizationResult{}, false, nil
			}
			duTd, ok := sdiffBound(cfg, du, sink)
			if !ok {
				return utilizationResult{}, false, nil
			}
			return utilizationResult{
				np: npTd.Bound.Milliseconds(),
				du: duTd.Bound.Milliseconds(),
			}, true, nil
		},
		point: func(upct int, results []utilizationResult) error {
			var nps, dus []float64
			for _, r := range results {
				nps = append(nps, r.np)
				dus = append(dus, r.du)
			}
			tbl.AddRow(upct, mean(nps), mean(dus))
			if cfg.Log != nil {
				fmt.Fprintf(cfg.Log, "util=%d%%: NP=%.3f Duerr=%.3f (%d graphs)\n",
					upct, mean(nps), mean(dus), len(nps))
			}
			return nil
		},
		emptyErr: func(upct int) error {
			return fmt.Errorf("exp: no schedulable graphs at %d%% utilization", upct)
		},
	})
	if err != nil {
		return nil, err
	}
	return tbl, nil
}

// genUtilization builds a schedulable workload whose per-ECU WCET
// utilization is scaled toward the target.
func genUtilization(cfg Config, n int, target float64, pi, gi int) *model.Graph {
	for attempt := 0; attempt < 80; attempt++ {
		g := genForPoint(cfg, n, pi, gi*100+attempt)
		if g == nil {
			return nil
		}
		if !scaleUtilization(g, target) {
			continue
		}
		if res := sched.Analyze(g, sched.NonPreemptiveFP); res.Schedulable {
			return g
		}
	}
	return nil
}

// scaleUtilization multiplies every scheduled task's execution times so
// each ECU's WCET utilization hits the target (WCETs capped at the
// period; BCETs keep their ratio to WCET). Returns false when an ECU has
// no load to scale.
func scaleUtilization(g *model.Graph, target float64) bool {
	util := sched.Utilization(g)
	for ecu, ids := range g.TasksByECU() {
		if len(ids) == 0 {
			continue // empty ECU: nothing to scale
		}
		if util[ecu] <= 0 {
			return false
		}
		factor := target / util[ecu]
		for _, id := range ids {
			t := g.Task(id)
			ratio := float64(t.BCET) / float64(t.WCET)
			w := timeu.Time(float64(t.WCET) * factor)
			if w > t.Period {
				w = t.Period
			}
			if w < 1 {
				w = 1
			}
			b := timeu.Time(float64(w) * ratio)
			if b < 1 {
				b = 1
			}
			t.WCET, t.BCET = w, b
		}
	}
	return true
}
