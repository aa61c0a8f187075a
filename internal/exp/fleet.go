package exp

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/can"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/randgraph"
	"repro/internal/timeu"
	"repro/internal/trace/span"
	"repro/internal/waters"
)

// fleetShape fixes the per-zone dimensions of the sweep topology so the
// zone count alone sets the scale: each zone adds 4 ECUs × 4 pipelines
// × (1 stimulus + 4 processing tasks) + aggregators and a gateway —
// ~85 tasks and 16 source→fusion chains per zone.
const (
	fleetECUsPerZone = 4
	fleetPipesPerECU = 4
	fleetProcDepth   = 4
	fleetTailLen     = 2
)

// fleetResult carries the per-graph values of FleetSweep.
type fleetResult struct {
	tasks        float64
	pdiff, sdiff float64 // milliseconds
	ok           bool
}

// FleetSweep scales the zonal fleet topology by zone count and reports
// the analysis-only P-diff and S-diff bounds at the pipeline sink,
// plus the post-split task count per point. Execution times are
// budgeted (waters.PopulateBudget), so every draw is NP-FP schedulable
// by construction and no regeneration loop runs — the sweep measures
// the analysis engine at 10^3-task scale, not generator retries.
func FleetSweep(cfg Config) (*Table, error) {
	tbl := &Table{
		Title:   "Fleet sweep: analysis-only disparity bounds vs zones (ms)",
		XLabel:  "zones",
		Columns: []string{"tasks", colPDiff, colSDiff},
	}
	err := runSweep(cfg, sweepSpec[fleetResult]{
		prefix: "zones=",
		checkPoint: func(z int) error {
			if z < 1 {
				return fmt.Errorf("exp: fleet sweep needs ≥ 1 zone, got %d", z)
			}
			return nil
		},
		eval: func(ctx context.Context, tk *span.Track, z, pi, gi int) (fleetResult, bool, error) {
			r, err := evalFleetGraph(ctx, cfg, tk, z, pi, gi)
			return r, r.ok, err
		},
		point: func(z int, results []fleetResult) error {
			var ts, pds, sds []float64
			for _, r := range results {
				ts = append(ts, r.tasks)
				pds = append(pds, r.pdiff)
				sds = append(sds, r.sdiff)
			}
			tbl.AddRow(z, mean(ts), mean(pds), mean(sds))
			if cfg.Log != nil {
				fmt.Fprintf(cfg.Log, "zones=%d: tasks=%.0f P-diff=%.3fms S-diff=%.3fms (%d graphs)\n",
					z, mean(ts), mean(pds), mean(sds), len(pds))
			}
			return nil
		},
		emptyErr: func(z int) error { return fmt.Errorf("exp: no usable graphs at point zones=%d", z) },
	})
	if err != nil {
		return nil, err
	}
	return tbl, nil
}

// generateFleet draws one populated, CAN-split fleet graph. The
// topology is deterministic in z; only the WATERS parameterization
// varies with the rng stream.
func generateFleet(tk *span.Track, z int, rng *rand.Rand) *model.Graph {
	defer stage(genHist, tk, "generate")()
	g, _, err := randgraph.Fleet(randgraph.FleetConfig{
		Zones: z, ECUsPerZone: fleetECUsPerZone, PipesPerECU: fleetPipesPerECU,
		ProcDepth: fleetProcDepth, TailLen: fleetTailLen,
	})
	if err != nil {
		return nil
	}
	waters.PopulateBudget(g, rng, 20*timeu.Millisecond, 0.5)
	bus := can.Bus{Rate: can.Baud500k, Format: can.Standard, Payload: 8}
	if _, _, err := bus.Split(g, "can0"); err != nil {
		return nil
	}
	graphsGenerated.Inc()
	return g
}

// evalFleetGraph generates and analyzes the gi-th fleet graph of point
// z. Unlike the GNM sweeps there is no retry loop: the topology is
// deterministic and the budget populator cannot produce unschedulable
// draws, so a failure here is structural and marks the graph unusable
// rather than masking it with regeneration.
func evalFleetGraph(ctx context.Context, cfg Config, tk *span.Track, z, pi, gi int) (fleetResult, error) {
	if failGraphHook != nil {
		if err := failGraphHook(pi, gi); err != nil {
			return fleetResult{}, err
		}
	}
	ws := tk.Start("workload")
	defer ws.End(span.Int("zones", int64(z)), span.Int("graph", int64(gi)))
	if err := ctx.Err(); err != nil {
		return fleetResult{}, err
	}
	rng := newGraphRNG(cfg.Seed, pi, gi)
	g := generateFleet(tk, z, rng)
	if g == nil {
		return fleetResult{}, nil
	}
	stop := stage(analysisHist, tk, "analysis")
	defer stop()
	a, ok := cfg.newAnalysis(g, tk)
	if !ok {
		return fleetResult{}, nil
	}
	sink := g.Sinks()[0]
	pd, err := a.DisparityBound(sink, core.PDiff, cfg.MaxChains)
	if err != nil {
		return fleetResult{}, err
	}
	sd, err := a.DisparityBound(sink, core.SDiff, cfg.MaxChains)
	if err != nil {
		return fleetResult{}, err
	}
	if pd.Truncated || sd.Truncated {
		cfg.noteTruncation(fmt.Sprintf("zones=%d graph %d (%v)", z, gi, sd.Cause))
		return fleetResult{}, nil
	}
	graphsUsed.Inc()
	return fleetResult{
		tasks: float64(g.NumTasks()),
		pdiff: pd.Bound.Milliseconds(),
		sdiff: sd.Bound.Milliseconds(),
		ok:    true,
	}, nil
}
