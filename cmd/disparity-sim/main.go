// Command disparity-sim simulates a cause-effect graph (JSON) under the
// run-time semantics of the paper and reports observed maximum
// disparities per task, optionally exporting a job trace.
//
// Usage:
//
//	disparity-sim -graph g.json [-horizon 10s] [-exec extremes] [-seed 1]
//	              [-warmup 1s] [-random-offsets] [-jobtrace out.csv]
//	disparity-sim -graph g.json -paper         # the paper's full 10-minute horizon
//	disparity-sim -graph g.json -horizon auto  # transient + a few hyperperiods
//	disparity-sim -graph g.json -runs 50 -random-offsets -exec wcet
//
// -horizon auto derives the span from the graph itself: the transient
// prefix (release offsets plus warm-up) followed by a few full
// hyperperiod cycles of steady state. -runs N batches N simulations
// with fresh offsets and seeds through one shared engine (sim.Batch)
// and reports the maximum disparity over all runs. Deterministic
// periodic runs skip repeated steady-state cycles via jump-ahead;
// -no-jump forces full execution (results are identical either way).
//
// Observability (the shared flag block, see internal/cli; -trace is the
// Chrome span trace as in every other tool, -jobtrace the per-job CSV):
//
//	disparity-sim -graph g.json -metrics             # dump counters/histograms
//	disparity-sim -graph g.json -pprof cpu.out       # write a CPU profile
//	disparity-sim -graph g.json -trace run.json      # Chrome trace (ui.perfetto.dev)
//	disparity-sim -graph g.json -telemetry :9090     # live /metrics + pprof
//	disparity-sim -graph g.json -manifest run.json   # per-run provenance
//	disparity-sim -graph g.json -explain out.json    # decision record (jump-ahead outcome)
package main

import (
	"fmt"
	"math/rand"
	"os"
	"text/tabwriter"

	"sort"
	"strings"

	disparity "repro"
	"repro/internal/cli"
	"repro/internal/explain"
	"repro/internal/gantt"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/timeu"
	"repro/internal/trace"
	"repro/internal/trace/span"
	"repro/internal/waters"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "disparity-sim:", err)
		os.Exit(1)
	}
}

func execModel(name string) (disparity.ExecModel, error) {
	switch name {
	case "wcet":
		return disparity.ExecWCET, nil
	case "bcet":
		return disparity.ExecBCET, nil
	case "uniform":
		return disparity.ExecUniform, nil
	case "extremes":
		return disparity.ExecExtremes, nil
	default:
		return nil, fmt.Errorf("unknown exec model %q (wcet|bcet|uniform|extremes)", name)
	}
}

func run(args []string) error {
	app := cli.New("disparity-sim")
	fs := app.FlagSet()
	graphPath := fs.String("graph", "", "path to the graph JSON (required)")
	horizonStr := fs.String("horizon", "10s", "simulated time span, or \"auto\" (transient + a few hyperperiods)")
	warmupStr := fs.String("warmup", "1s", "measurement warm-up")
	paper := fs.Bool("paper", false, "use the paper's full 10-minute horizon (overrides -horizon)")
	execName := fs.String("exec", "extremes", "execution-time model: wcet|bcet|uniform|extremes")
	randomOffsets := fs.Bool("random-offsets", false, "draw release offsets uniformly from [0, T)")
	runs := fs.Int("runs", 1, "batch this many runs through one engine; with -random-offsets each run draws fresh offsets")
	noJump := fs.Bool("no-jump", false, "disable steady-state jump-ahead (results are identical either way)")
	jobTracePath := fs.String("jobtrace", "", "write a per-job CSV trace")
	jobTraceLimit := fs.Int("jobtrace-limit", 100000, "max job-trace records")
	ganttPath := fs.String("gantt", "", "write an SVG Gantt chart of the first 200ms")
	ganttASCII := fs.Bool("gantt-ascii", false, "print an ASCII Gantt chart of the first 200ms")
	if err := app.Parse(args); err != nil {
		return err
	}
	if *graphPath == "" {
		fs.Usage()
		return fmt.Errorf("-graph is required")
	}
	if err := app.Start(); err != nil {
		return err
	}
	defer app.Close()
	if *runs < 1 {
		return fmt.Errorf("-runs must be at least 1")
	}
	warmup, err := disparity.ParseTime(*warmupStr)
	if err != nil {
		return err
	}
	exec, err := execModel(*execName)
	if err != nil {
		return err
	}
	f, err := os.Open(*graphPath)
	if err != nil {
		return err
	}
	defer f.Close()
	g, err := disparity.ReadGraph(f)
	if err != nil {
		return err
	}
	seed := app.Seed()
	if *randomOffsets && *runs == 1 {
		disparity.RandomOffsets(g, seed)
	}
	horizon, err := resolveHorizon(*horizonStr, *paper, g, warmup, *randomOffsets && *runs > 1)
	if err != nil {
		return err
	}

	var track *span.Track
	if app.Tracer != nil {
		track = app.Tracer.Track("sim")
	}

	if *runs > 1 {
		if *jobTracePath != "" || *ganttPath != "" || *ganttASCII {
			return fmt.Errorf("-jobtrace and -gantt record a single run; drop them or -runs")
		}
		jobs, overruns, jumpCodes, lastJump, maxDisp, err := runBatch(g, sim.Config{
			Horizon:          horizon,
			Exec:             exec,
			Trace:            track,
			DisableJumpAhead: *noJump,
		}, warmup, seed, *runs, *randomOffsets)
		if err != nil {
			return err
		}
		fmt.Printf("simulated %d × %v (%d jobs, %d overruns, exec=%s, seed=%d)\n",
			*runs, horizon, jobs, overruns, *execName, seed)
		engaged := jumpCodes["engaged"]
		fmt.Printf("jump-ahead: engaged on %d/%d runs%s\n", engaged, *runs, fallbackBreakdown(jumpCodes))
		app.Explain.Sim(explain.SimRecord{
			Label: "batch", Runs: *runs, Jobs: jobs, Jump: explain.JumpFrom(lastJump),
		})
		if err := printDisparities(g, func(id model.TaskID) timeu.Time { return maxDisp[id] }); err != nil {
			return err
		}
		return app.Finish(os.Stdout, seed, map[string]any{
			"graph":          *graphPath,
			"horizon_ns":     int64(horizon),
			"warmup_ns":      int64(warmup),
			"exec":           *execName,
			"random_offsets": *randomOffsets,
			"runs":           *runs,
			"jobs":           jobs,
			"overruns":       overruns,
		})
	}

	var observers []sim.Observer
	var rec *trace.Recorder
	if *jobTracePath != "" || *ganttPath != "" || *ganttASCII {
		rec = trace.NewRecorder()
		rec.Limit = *jobTraceLimit
		observers = append(observers, rec)
	}
	res, err := disparity.Simulate(g, disparity.SimConfig{
		Horizon:          horizon,
		Warmup:           warmup,
		Exec:             exec,
		Seed:             seed,
		Observers:        observers,
		Trace:            track,
		DisableJumpAhead: *noJump,
	})
	if err != nil {
		return err
	}

	fmt.Printf("simulated %v (%d jobs, %d overruns, exec=%s, seed=%d)\n",
		horizon, res.Jobs, res.Overruns, *execName, seed)
	logJump(res.Jump)
	explain.CountJump(res.Jump)
	app.Explain.Sim(explain.SimRecord{
		Label: "run", Runs: 1, Jobs: res.Jobs, Jump: explain.JumpFrom(res.Jump),
	})
	if err := printDisparities(g, func(id model.TaskID) timeu.Time { return res.MaxDisparity[id] }); err != nil {
		return err
	}

	if rec != nil && (*ganttPath != "" || *ganttASCII) {
		win := timeu.Min(horizon, 200*timeu.Millisecond)
		chart := gantt.New(g, rec.Records).Window(0, win)
		if *ganttASCII {
			if err := chart.WriteASCII(os.Stdout, 100); err != nil {
				return err
			}
		}
		if *ganttPath != "" {
			gf, err := os.Create(*ganttPath)
			if err != nil {
				return err
			}
			if err := chart.WriteSVG(gf); err != nil {
				gf.Close()
				return err
			}
			if err := gf.Close(); err != nil {
				return err
			}
			fmt.Printf("gantt: wrote %s\n", *ganttPath)
		}
	}

	if rec != nil && *jobTracePath != "" {
		tf, err := os.Create(*jobTracePath)
		if err != nil {
			return err
		}
		if err := rec.WriteCSV(tf); err != nil {
			tf.Close()
			return err
		}
		if err := tf.Close(); err != nil {
			return err
		}
		fmt.Printf("jobtrace: %d records written to %s (%d dropped)\n",
			len(rec.Records), *jobTracePath, rec.Dropped)
	}
	return app.Finish(os.Stdout, seed, map[string]any{
		"graph":          *graphPath,
		"horizon_ns":     int64(horizon),
		"warmup_ns":      int64(warmup),
		"exec":           *execName,
		"random_offsets": *randomOffsets,
		"jobs":           res.Jobs,
		"overruns":       res.Overruns,
	})
}

// autoCycles is how many full hyperperiod cycles of steady state
// -horizon auto simulates after the transient prefix. A deterministic
// periodic run repeats after one cycle (and jump-ahead skips the rest);
// a few extra cycles keep the auto horizon useful for random exec
// models too.
const autoCycles = 4

// resolveHorizon turns the -horizon flag into a time span. "auto"
// derives it from the graph: the transient prefix (release offsets plus
// warm-up) followed by autoCycles full hyperperiod cycles. When the
// batch draws fresh random offsets per run the concrete offsets are
// unknown here; each is below its task's period and therefore below the
// hyperperiod, which bounds the transient instead.
func resolveHorizon(s string, paper bool, g *disparity.Graph, warmup timeu.Time, randomPerRun bool) (timeu.Time, error) {
	if paper {
		// The paper's evaluation simulates 10 minutes per run; with the
		// pooled engine this is routine rather than a coffee break.
		return 10 * timeu.Minute, nil
	}
	if s != "auto" {
		return disparity.ParseTime(s)
	}
	hp, err := g.HyperperiodChecked(10 * timeu.Minute)
	if err != nil {
		return 0, fmt.Errorf("-horizon auto: %w", err)
	}
	var off timeu.Time
	if randomPerRun {
		off = hp
	} else {
		for i := 0; i < g.NumTasks(); i++ {
			off = timeu.Max(off, g.Task(model.TaskID(i)).Offset)
		}
	}
	h := off + warmup + autoCycles*hp
	fmt.Printf("horizon auto: %v (transient %v + %d × hyperperiod %v)\n",
		h, off+warmup, autoCycles, hp)
	return h, nil
}

// runBatch executes n variants through one shared engine: fresh
// disparity observers per run, fresh offsets when requested, and seeds
// drawn from one deterministic stream. Each run's jump-ahead outcome
// goes to explain.CountJump. It returns aggregate counters, the
// per-run jump-ahead outcome tally (keyed by reason code, with
// "engaged" counting the fast-path runs), the last run's jump stats,
// and the per-task maximum disparity over all runs.
func runBatch(g *disparity.Graph, base sim.Config, warmup timeu.Time, seed int64, n int, randomOffsets bool) (jobs, overruns int64, jumpCodes map[string]int64, lastJump sim.JumpStats, maxDisp []timeu.Time, err error) {
	batch, err := sim.NewBatch(g, base)
	if err != nil {
		return 0, 0, nil, sim.JumpStats{}, nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	maxDisp = make([]timeu.Time, g.NumTasks())
	jumpCodes = make(map[string]int64)
	var offsets []timeu.Time
	for run := 0; run < n; run++ {
		if randomOffsets {
			offsets = waters.DrawOffsets(g, rng, offsets[:0])
		}
		obs := sim.NewDisparityObserver(warmup)
		res, err := batch.Run(sim.BatchRun{
			Seed:      rng.Int63(),
			Offsets:   offsets,
			Observers: []sim.Observer{obs},
		})
		if err != nil {
			return 0, 0, nil, sim.JumpStats{}, nil, fmt.Errorf("run %d: %w", run, err)
		}
		jobs += res.Stats.Jobs
		overruns += res.Stats.Overruns
		jumpCodes[res.Jump.Code()]++
		explain.CountJump(res.Jump)
		lastJump = res.Jump
		for i := 0; i < g.NumTasks(); i++ {
			id := model.TaskID(i)
			maxDisp[id] = timeu.Max(maxDisp[id], obs.Max(id))
		}
	}
	return jobs, overruns, jumpCodes, lastJump, maxDisp, nil
}

// fallbackBreakdown renders the non-engaged jump outcomes of a batch
// (" (fallbacks: random-exec x3, ...)"), or "" when every run engaged.
func fallbackBreakdown(jumpCodes map[string]int64) string {
	codes := make([]string, 0, len(jumpCodes))
	for code := range jumpCodes {
		if code != "engaged" {
			codes = append(codes, code)
		}
	}
	if len(codes) == 0 {
		return ""
	}
	sort.Strings(codes)
	parts := make([]string, 0, len(codes))
	for _, code := range codes {
		parts = append(parts, fmt.Sprintf("%s x%d", code, jumpCodes[code]))
	}
	return " (fallbacks: " + strings.Join(parts, ", ") + ")"
}

// printDisparities writes the per-task maximum-disparity table.
func printDisparities(g *disparity.Graph, get func(model.TaskID) timeu.Time) error {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "task\tmax disparity")
	for i := 0; i < g.NumTasks(); i++ {
		id := model.TaskID(i)
		fmt.Fprintf(tw, "%s\t%v\n", g.Task(id).Name, get(id))
	}
	return tw.Flush()
}

// logJump reports which simulation mode a single run used.
func logJump(j disparity.JumpStats) {
	switch {
	case j.Engaged:
		fmt.Printf("jump-ahead: skipped %d cycles of %v (%v) after a %v transient\n",
			j.Skipped, j.Cycle, j.SkippedTime, j.Transient)
	case j.Eligible:
		fmt.Printf("jump-ahead: armed (hyperperiod %v) but no cycle repeated within the horizon\n",
			j.Hyperperiod)
	default:
		fmt.Printf("jump-ahead: off (%s)\n", j.Reason)
	}
}
