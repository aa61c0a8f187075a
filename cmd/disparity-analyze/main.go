// Command disparity-analyze loads a cause-effect graph (JSON) and prints
// its schedulability report, per-chain backward-time bounds, the
// end-to-end latency metric family (MRT, MRRT, MDA, MRDA), and the
// worst-case time disparity of a task under both analytic bounds
// (P-diff, Theorem 1; S-diff, Theorem 2), optionally with
// Algorithm 1's buffer plan.
//
// Usage:
//
//	disparity-analyze -graph g.json [-task fusion] [-optimize] [-pairs] [-dot out.dot]
//
// Without -task, the single sink of the graph is analyzed. -metrics
// dumps the analysis counters, -pprof writes a CPU profile.
package main

import (
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"path/filepath"
	"strings"

	disparity "repro"
	"repro/internal/backward"
	"repro/internal/chains"
	"repro/internal/cli"
	"repro/internal/core"
	exhaustivepkg "repro/internal/exhaustive"
	"repro/internal/explain"
	"repro/internal/model"
	"repro/internal/sched"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "disparity-analyze:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	app := cli.New("disparity-analyze")
	fs := app.FlagSet()
	graphPath := fs.String("graph", "", "path to the graph JSON (required)")
	taskName := fs.String("task", "", "task to analyze (default: the sink)")
	optimize := fs.Bool("optimize", false, "run Algorithm 1 on the worst pair")
	pairs := fs.Bool("pairs", false, "print every chain pair, not just the worst")
	maxChains := fs.Int("max-chains", 0, "cap on enumerated chains (0 = default)")
	exhaustive := fs.Bool("exhaustive", false, "sweep offsets × exec corners for a worst-case witness (small graphs only)")
	exStep := fs.String("exhaustive-step", "1ms", "offset grid for -exhaustive")
	dotPath := fs.String("dot", "", "also write the graph in Graphviz DOT format")
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
	f, err := os.Open(*graphPath)
	if err != nil {
		return err
	}
	defer f.Close()
	g, err := disparity.ReadGraph(f)
	if err != nil {
		return err
	}
	if *dotPath != "" {
		df, err := os.Create(*dotPath)
		if err != nil {
			return err
		}
		if err := g.WriteDOT(df); err != nil {
			df.Close()
			return err
		}
		if err := df.Close(); err != nil {
			return err
		}
	}

	task, err := pickTask(g, *taskName)
	if err != nil {
		return err
	}
	app.Explain.SetGraph(filepath.Base(*graphPath), g.NumTasks(), g.NumEdges())

	// Schedulability report.
	sp := app.Tracer.Track("analysis").Start("wcrt")
	res := sched.Analyze(g, sched.NonPreemptiveFP)
	sp.End()
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "task\tecu\tprio\tW\tB\tT\tR\tok")
	for i := 0; i < g.NumTasks(); i++ {
		t := g.Task(model.TaskID(i))
		ecu := "-"
		if t.ECU != model.NoECU {
			ecu = g.ECU(t.ECU).Name
		}
		ok := "yes"
		if res.R(t.ID) > t.Period {
			ok = "NO"
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%v\t%v\t%v\t%v\t%s\n",
			t.Name, ecu, t.Prio, t.WCET, t.BCET, t.Period, res.R(t.ID), ok)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if !res.Schedulable {
		return fmt.Errorf("graph is not schedulable under NP-FP; disparity bounds undefined")
	}

	// Chains and backward-time bounds. The trie index truncates at the
	// cap instead of failing, so an over-cap graph still gets a partial
	// listing — flagged, like the bounds below.
	idx := chains.NewIndex(g, task, *maxChains)
	an := backward.NewAnalyzer(g, res, backward.NonPreemptive)
	fmt.Fprintf(stdout, "\nchains ending at %s:\n", g.Task(task).Name)
	for _, c := range idx.Chains() {
		fmt.Fprintf(stdout, "  %-50s WCBT=%v BCBT=%v\n", c.Format(g), an.WCBT(c), an.BCBT(c))
	}
	if idx.Truncated() {
		fmt.Fprintf(stdout, "  ... enumeration truncated at the first %d chains (raise -max-chains)\n", idx.NumChains())
	}

	a, err := disparity.Analyze(g)
	if err != nil {
		return err
	}
	// End-to-end latency metric family, off the same chain trie.
	fmt.Fprintf(stdout, "\nend-to-end latency bounds of %s:\n", g.Task(task).Name)
	for _, l := range backward.Latencies() {
		tl, err := a.Latency(task, l, *maxChains)
		if err != nil {
			return err
		}
		worst := ""
		if len(tl.ArgMax) > 0 {
			worst = "  worst: " + tl.ArgMax.Format(g)
		}
		fmt.Fprintf(stdout, "  %-5s %-8v (%s)%s\n", l, tl.Bound, l.Ref(), worst)
		if tl.Truncated {
			fmt.Fprintf(stdout, "  WARNING: chain enumeration truncated at the cap; the bound covers a partial chain set (raise -max-chains)\n")
		}
	}

	// Each plain bound gets a section from the bound-only descent: the
	// bound and its worst pair, which the record and the witness read.
	// -pairs streams every pair, in O(1) pair memory at any pair count.
	var sd *core.TaskDisparity
	for _, m := range []core.Method{core.PDiff, core.SDiff} {
		td, err := a.DisparityBound(task, m, *maxChains)
		if err != nil {
			return err
		}
		if m == core.SDiff {
			sd = td
		}
		app.Explain.Method(explain.MethodFrom(g, m, td))
		fmt.Fprintf(stdout, "\n%s worst-case time disparity of %s: %v\n", m, g.Task(task).Name, td.Bound)
		if td.Truncated {
			fmt.Fprintf(stdout, "  WARNING: chain enumeration truncated at the cap; the bound covers a partial chain set (raise -max-chains)\n")
		}
		if *pairs {
			var streamErr error
			if _, err := a.ForEachPairBound(task, m, *maxChains, func(_ int, pb *core.PairBound) bool {
				_, streamErr = fmt.Fprintf(stdout, "  %v | %v: %v (x1=%d y1=%d)\n",
					pb.Lambda.Format(g), pb.Nu.Format(g), pb.Bound, pb.X1, pb.Y1)
				return streamErr == nil
			}); err != nil {
				return err
			}
			if streamErr != nil {
				return streamErr
			}
		}
	}

	// The witness replays the S-diff worst pair, the tighter bound's.
	if app.Explain.Enabled() {
		w, err := explain.BuildWitness(g, core.SDiff.String(), sd, 1)
		if err != nil {
			return err
		}
		if w != nil {
			app.Explain.SetWitness(w)
			base := strings.TrimSuffix(app.ExplainPath(), filepath.Ext(app.ExplainPath()))
			svgPath := base + ".witness.svg"
			sf, err := os.Create(svgPath)
			if err != nil {
				return err
			}
			if err := w.WriteSVG(sf); err != nil {
				sf.Close()
				return err
			}
			if err := sf.Close(); err != nil {
				return err
			}
			ctPath := base + ".witness.trace.json"
			if err := w.WriteChromeTrace(ctPath); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "disparity-analyze: witness timeline written to %s and %s (open in ui.perfetto.dev)\n",
				svgPath, ctPath)
		}
	}

	if *exhaustive {
		step, err := disparity.ParseTime(*exStep)
		if err != nil {
			return err
		}
		res, err := exhaustivepkg.Search(g, task, exhaustivepkg.Config{OffsetStep: step})
		if err != nil {
			return err
		}
		pct := 0.0
		if sd.Bound > 0 {
			pct = 100 * float64(res.Disparity) / float64(sd.Bound)
		}
		fmt.Fprintf(stdout, "\nexhaustive witness: disparity %v over %d configurations (%.0f%% of S-diff)\n",
			res.Disparity, res.Combos, pct)
	}

	if *optimize {
		plan, _, err := a.OptimizeTask(task, *maxChains)
		if err != nil {
			return err
		}
		src, dst := g.Task(plan.Edge.Src).Name, g.Task(plan.Edge.Dst).Name
		fmt.Fprintf(stdout, "\nAlgorithm 1: set buffer %s -> %s to capacity %d (shift L=%v)\n",
			src, dst, plan.Cap, plan.L)
		fmt.Fprintf(stdout, "Theorem 3 bound: %v -> %v\n", plan.Before, plan.After)
	}
	if err := app.Explain.WriteSummary(stdout); err != nil {
		return err
	}
	return app.Finish(stdout, 0, nil)
}

func pickTask(g *disparity.Graph, name string) (disparity.TaskID, error) {
	if name != "" {
		t, ok := g.TaskByName(name)
		if !ok {
			return 0, fmt.Errorf("no task named %q", name)
		}
		return t.ID, nil
	}
	sinks := g.Sinks()
	if len(sinks) != 1 {
		return 0, fmt.Errorf("graph has %d sinks; pass -task to choose one", len(sinks))
	}
	return sinks[0], nil
}
