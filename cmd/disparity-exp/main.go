// Command disparity-exp reproduces the paper's evaluation (Fig. 6): it
// runs the synthetic experiments and prints the same series the paper
// plots, as aligned tables and optionally CSV.
//
// Usage:
//
//	disparity-exp -fig 6a            # Sim / P-diff / S-diff vs #tasks
//	disparity-exp -fig 6b            # incremental ratios of (a)
//	disparity-exp -fig 6c            # two-chain buffering experiment
//	disparity-exp -fig 6d            # incremental ratios of (c)
//	disparity-exp -fig bounds        # analysis-only bounds (no simulation)
//	disparity-exp -fig fleet         # fleet-scale zonal sweep (10^3 tasks)
//	disparity-exp -fig latency       # MRT/MRRT/MDA/MRDA bounds vs simulation
//	disparity-exp -fig all           # everything
//	disparity-exp -fig 6a -paper     # the paper's full 10-minute horizons
//	disparity-exp -fig 6a -csv out.csv
//
// Ablations of the reproduction's design choices:
//
//	disparity-exp -fig ablation-backward   # Lemma 4/5 vs baseline bounds
//	disparity-exp -fig ablation-tail       # shared-tail length sweep
//	disparity-exp -fig ablation-exec       # execution-time models vs bound
//
// Observability (the shared flag block, see internal/cli):
//
//	disparity-exp -fig 6a -metrics           # dump internal counters/timers
//	disparity-exp -fig 6a -pprof cpu.out     # write a CPU profile
//	disparity-exp -fig 6a -no-jump           # disable steady-state jump-ahead
//	disparity-exp -fig 6a -trace run.json    # Chrome trace (ui.perfetto.dev)
//	disparity-exp -fig 6a -telemetry :9090   # live /metrics, /progress, pprof
//	disparity-exp -fig 6a -manifest run.json # per-run provenance manifest
package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/exp"
	"repro/internal/timeu"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "disparity-exp:", err)
		os.Exit(1)
	}
}

// sweepCmd is one -fig value: how to run it and which point overrides
// it applies. forcePoints always replaces cfg.Points; defaultPoints
// only when the user gave no -points. ecus overrides cfg.ECUs when
// non-zero (the single-ECU ablations, where Lemma 4's refinement over
// the scheduler-agnostic baseline applies to every hop).
type sweepCmd struct {
	run           func(exp.Config) (*exp.Table, error)
	forcePoints   []int
	defaultPoints []int
	ecus          int
}

var sweeps = map[string]sweepCmd{
	"6a":                 {run: exp.Fig6a},
	"6b":                 {run: exp.Fig6b},
	"6c":                 {run: exp.Fig6c},
	"6d":                 {run: exp.Fig6d},
	"bounds":             {run: exp.BoundsSweep},
	"ablation-backward":  {run: exp.AblationBackward},
	"ablation-tail":      {run: tailSweep, forcePoints: []int{0, 1, 2, 3, 4, 6, 8}},
	"ablation-exec":      {run: exp.AblationExec},
	"ablation-semantics": {run: exp.AblationSemantics},
	"ablation-utilization": {
		run:           exp.AblationUtilization,
		defaultPoints: []int{1, 5, 10, 20, 40, 60},
		ecus:          1,
	},
	"ablation-priority": {
		run:           exp.AblationPriority,
		defaultPoints: []int{1, 10, 30, 50},
		ecus:          1,
	},
	"fleet":                {run: exp.FleetSweep, defaultPoints: []int{2, 4, 8, 12}},
	"ablation-greedy":      {run: exp.AblationGreedyBuffers},
	"ablation-adversarial": {run: exp.AblationAdversarial, defaultPoints: []int{5, 10, 15}},
	"latency":              {run: exp.LatencySweep},
}

func tailSweep(cfg exp.Config) (*exp.Table, error) { return exp.AblationTail(cfg, 20) }

func run(args []string, stdout io.Writer) error {
	app := cli.New("disparity-exp")
	fs := app.FlagSet()
	fig := fs.String("fig", "all", "which panel: 6a|6b|6c|6d|bounds|all")
	paper := fs.Bool("paper", false, "use the paper's full scale (10-minute horizons)")
	horizonStr := fs.String("horizon", "", "override simulation horizon (e.g. 30s)")
	graphs := fs.Int("graphs", 0, "override graphs per point")
	offsets := fs.Int("offsets", 0, "override offset runs per graph")
	points := fs.String("points", "", "override X values, comma-separated")
	csvPath := fs.String("csv", "", "also write the tables as CSV (one file per panel, suffixing the name)")
	quiet := fs.Bool("quiet", false, "suppress progress logging")
	progress := fs.Bool("progress", false, "log per-graph progress to stderr")
	noJump := fs.Bool("no-jump", false, "disable the simulator's steady-state jump-ahead (results are identical; for benchmarking)")
	if err := app.Parse(args); err != nil {
		return err
	}

	cfg := exp.Defaults()
	if *paper {
		cfg = exp.PaperScale()
	}
	if *horizonStr != "" {
		h, err := timeu.Parse(*horizonStr)
		if err != nil {
			return err
		}
		cfg.Horizon = h
	}
	if *graphs > 0 {
		cfg.GraphsPerPoint = *graphs
	}
	if *offsets > 0 {
		cfg.OffsetsPerGraph = *offsets
	}
	if *points != "" {
		var ps []int
		for _, p := range strings.Split(*points, ",") {
			var v int
			if _, err := fmt.Sscanf(strings.TrimSpace(p), "%d", &v); err != nil {
				return fmt.Errorf("bad -points %q: %w", *points, err)
			}
			ps = append(ps, v)
		}
		cfg.Points = ps
	}
	if s := app.Seed(); s != 0 {
		cfg.Seed = s
	}
	cfg.Workers = app.Workers()
	cfg.DisableJumpAhead = *noJump
	if !*quiet {
		cfg.Log = os.Stderr
	}
	if *progress {
		cfg.Progress = os.Stderr
	}

	if err := app.Start(); err != nil {
		return err
	}
	defer app.Close()
	cfg.Tracer = app.Tracer
	if app.Tracker != nil {
		cfg.Sink = app.Tracker
	}

	var tables []*exp.Table
	switch {
	case *fig == "all":
		// The (c)/(d) experiment uses shorter chains as its X axis.
		abs, ratio, err := exp.Fig6ab(cfg)
		if err != nil {
			return err
		}
		ccfg := cfg
		ccfg.Points = []int{5, 10, 15, 20, 25, 30}
		cAbs, cRatio, err := exp.Fig6cd(ccfg)
		if err != nil {
			return err
		}
		tables = append(tables, abs, ratio, cAbs, cRatio)
	default:
		cmd, ok := sweeps[*fig]
		if !ok {
			return fmt.Errorf("unknown -fig %q", *fig)
		}
		scfg := cfg
		if cmd.forcePoints != nil {
			scfg.Points = cmd.forcePoints
		} else if cmd.defaultPoints != nil && *points == "" {
			scfg.Points = cmd.defaultPoints
		}
		if cmd.ecus != 0 {
			scfg.ECUs = cmd.ecus
		}
		t, err := cmd.run(scfg)
		if err != nil {
			return err
		}
		tables = append(tables, t)
	}

	for i, t := range tables {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		if err := t.WriteText(stdout); err != nil {
			return err
		}
		if *csvPath != "" {
			name := *csvPath
			if len(tables) > 1 {
				name = fmt.Sprintf("%s.%d.csv", strings.TrimSuffix(name, ".csv"), i)
			}
			f, err := os.Create(name)
			if err != nil {
				return err
			}
			if err := t.WriteCSV(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	return app.Finish(stdout, cfg.Seed, map[string]any{
		"fig":               *fig,
		"points":            cfg.Points,
		"graphs_per_point":  cfg.GraphsPerPoint,
		"offsets_per_graph": cfg.OffsetsPerGraph,
		"horizon_ns":        int64(cfg.Horizon),
		"warmup_ns":         int64(cfg.Warmup),
		"ecus":              cfg.ECUs,
		"workers":           cfg.Workers,
		"max_chains":        cfg.MaxChains,
		"jump_disabled":     cfg.DisableJumpAhead,
	})
}
