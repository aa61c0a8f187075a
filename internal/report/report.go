// Package report renders a complete timing report for a cause-effect
// graph as Markdown: platform and schedulability overview, per-chain
// backward-time and end-to-end latency bounds, worst-case time disparity
// per analyzed task under both methods, and Algorithm 1's buffer
// recommendation. It is the "one command, full picture" entry point used
// by cmd/disparity-report.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/backward"
	"repro/internal/chains"
	"repro/internal/core"
	"repro/internal/explain"
	"repro/internal/model"
	"repro/internal/sched"
)

// Options selects report content.
type Options struct {
	// Tasks to analyze for disparity; empty means every sink.
	Tasks []model.TaskID
	// MaxChains caps chain enumeration (≤ 0: default).
	MaxChains int
	// Optimize includes Algorithm 1's recommendation per analyzed task.
	Optimize bool
	// Title overrides the document heading.
	Title string
	// Explain, when non-nil, receives per-method records and appends a
	// "Decision telemetry" section rendered from the run's decision
	// record (prune decisions, truncation). The nil recorder renders
	// nothing.
	Explain *explain.Recorder
}

// Write renders the report.
func Write(w io.Writer, g *model.Graph, opts Options) error {
	if err := g.Validate(); err != nil {
		return err
	}
	var b strings.Builder
	title := opts.Title
	if title == "" {
		title = "Cause-effect timing report"
	}
	fmt.Fprintf(&b, "# %s\n\n", title)

	res := sched.Analyze(g, sched.NonPreemptiveFP)
	writePlatform(&b, g, res)
	writeTasks(&b, g, res)
	if !res.Schedulable {
		b.WriteString("\n**Graph is not schedulable under NP-FP; latency and disparity sections omitted.**\n")
		_, err := io.WriteString(w, b.String())
		return err
	}

	targets := opts.Tasks
	if len(targets) == 0 {
		targets = g.Sinks()
	}
	an := backward.NewAnalyzer(g, res, backward.NonPreemptive)
	a := core.NewWithBackward(g, an)

	for _, task := range targets {
		if err := writeTaskAnalysis(&b, g, a, an, task, opts); err != nil {
			return err
		}
	}
	writeExplain(&b, opts.Explain.Record())
	_, err := io.WriteString(w, b.String())
	return err
}

// writeExplain renders the decision-telemetry section from the run's
// explain record: dominance-prune decisions, truncation status, and the
// jump-ahead tally. The deltas cover the
// report's own analysis because the recorder snapshots the counter
// registry at creation.
func writeExplain(b *strings.Builder, rec *explain.Record) {
	if rec == nil {
		return
	}
	b.WriteString("## Decision telemetry\n\n")
	if len(rec.Methods) > 0 {
		b.WriteString("| method | bound | pairs | worst pair |\n|---|---|---|---|\n")
		for _, m := range rec.Methods {
			worst := "-"
			if m.ArgMax != nil {
				worst = m.ArgMax.Lambda + " vs " + m.ArgMax.Nu
			}
			fmt.Fprintf(b, "| %s | %v | %d | %s |\n", m.Method, m.BoundNS, m.NumPairs, worst)
		}
		b.WriteString("\n")
	}
	if p := rec.Pairs; p != nil {
		fmt.Fprintf(b, "Pair bounds: %d computed, %d dominance-pruned (%.1f%%)", p.Bounded, p.Pruned, 100*p.PruneRatio)
		if p.ParallelRuns > 0 {
			fmt.Fprintf(b, "; block-parallel reduction engaged %d time(s)", p.ParallelRuns)
		}
		b.WriteString(".\n\n")
	}
	if c := rec.Chains; c != nil {
		fmt.Fprintf(b, "Chains: %d indexed, %d enumerated", c.Indexed, c.Enumerated)
		if c.Truncated > 0 {
			fmt.Fprintf(b, "; **enumeration truncated** (%s)", c.Cause)
		}
		b.WriteString(".\n\n")
	}
	if len(rec.JumpRuns) > 0 {
		codes := make([]string, 0, len(rec.JumpRuns))
		for code := range rec.JumpRuns {
			codes = append(codes, code)
		}
		sort.Strings(codes)
		b.WriteString("| jump-ahead outcome | runs |\n|---|---|\n")
		for _, code := range codes {
			fmt.Fprintf(b, "| %s | %d |\n", code, rec.JumpRuns[code])
		}
		b.WriteString("\n")
	}
}

func writePlatform(b *strings.Builder, g *model.Graph, res *sched.Result) {
	fmt.Fprintf(b, "## Platform\n\n")
	fmt.Fprintf(b, "%d tasks, %d channels, %d ECUs, hyperperiod %v.\n\n",
		g.NumTasks(), g.NumEdges(), g.NumECUs(), g.Hyperperiod())
	if g.NumECUs() > 0 {
		b.WriteString("| ECU | kind | tasks | utilization | schedulable |\n|---|---|---|---|---|\n")
		util := sched.Utilization(g)
		for ecu, ids := range g.TasksByECU() {
			e := g.ECU(model.ECUID(ecu))
			ok := "yes"
			for _, id := range ids {
				if res.R(id) > g.Task(id).Period {
					ok = "NO"
				}
			}
			fmt.Fprintf(b, "| %s | %s | %d | %.4f | %s |\n",
				e.Name, e.Kind, len(ids), util[ecu], ok)
		}
		b.WriteString("\n")
	}
}

func writeTasks(b *strings.Builder, g *model.Graph, res *sched.Result) {
	b.WriteString("## Tasks\n\n| task | ecu | sem | prio | WCET | BCET | T | offset | R | R ≤ T |\n|---|---|---|---|---|---|---|---|---|---|\n")
	for i := 0; i < g.NumTasks(); i++ {
		t := g.Task(model.TaskID(i))
		ecu := "-"
		if t.ECU != model.NoECU {
			ecu = g.ECU(t.ECU).Name
		}
		ok := "yes"
		if res.R(t.ID) > t.Period {
			ok = "**NO**"
		}
		fmt.Fprintf(b, "| %s | %s | %s | %d | %v | %v | %v | %v | %v | %s |\n",
			t.Name, ecu, t.Sem, t.Prio, t.WCET, t.BCET, t.Period, t.Offset, res.R(t.ID), ok)
	}
	b.WriteString("\n")
}

func writeTaskAnalysis(b *strings.Builder, g *model.Graph, a *core.Analysis, an *backward.Analyzer, task model.TaskID, opts Options) error {
	name := g.Task(task).Name
	fmt.Fprintf(b, "## Task %s\n\n", name)

	cs, err := chains.Enumerate(g, task, opts.MaxChains)
	if err != nil {
		return err
	}
	sort.Slice(cs, func(i, j int) bool { return an.WCBT(cs[i]) > an.WCBT(cs[j]) })
	b.WriteString("### Chains\n\n| chain | WCBT | BCBT | MRDA | MDA | MRRT | MRT |\n|---|---|---|---|---|---|---|\n")
	for _, c := range cs {
		fmt.Fprintf(b, "| %s | %v | %v | %v | %v | %v | %v |\n",
			c.Format(g), an.WCBT(c), an.BCBT(c),
			an.ChainLatency(backward.LatencyMRDA, c), an.ChainLatency(backward.LatencyMDA, c),
			an.ChainLatency(backward.LatencyMRRT, c), an.ChainLatency(backward.LatencyMRT, c))
	}
	b.WriteString("\n")

	// Task-level latency: the maximum of each metric over the task's
	// chains, with the chain attaining it.
	fmt.Fprintf(b, "### End-to-end latency\n\n")
	b.WriteString("| metric | bound | worst chain |\n|---|---|---|\n")
	for _, l := range backward.Latencies() {
		tl, err := a.Latency(task, l, opts.MaxChains)
		if err != nil {
			return err
		}
		worst := "-"
		if len(tl.ArgMax) > 0 {
			worst = tl.ArgMax.Format(g)
		}
		fmt.Fprintf(b, "| %s (%s) | %v | %s |\n", l, l.Ref(), tl.Bound, worst)
		if tl.Truncated {
			fmt.Fprintf(b, "| | *truncated at %d chains* | |\n", opts.MaxChains)
		}
	}
	b.WriteString("\n")

	if len(cs) < 2 {
		fmt.Fprintf(b, "Fewer than two chains: the time disparity of %s is trivially 0.\n\n", name)
		return nil
	}
	// One row per plain bound, labeled by its name and paper reference;
	// the bound-only descent also yields the worst pair read below.
	var sd *core.TaskDisparity
	fmt.Fprintf(b, "### Worst-case time disparity\n\n")
	b.WriteString("| method | bound |\n|---|---|\n")
	for _, m := range []core.Method{core.PDiff, core.SDiff} {
		td, err := a.DisparityBound(task, m, opts.MaxChains)
		if err != nil {
			return err
		}
		fmt.Fprintf(b, "| %s (%s) | %v |\n", m, m.Ref(), td.Bound)
		if m == core.SDiff {
			sd = td
		}
		opts.Explain.Method(explain.MethodFrom(g, m, td))
	}
	b.WriteString("\n")
	worst := sd.Pairs[sd.ArgMax]
	fmt.Fprintf(b, "Worst S-diff pair (after last-joint-task reduction):\n\n")
	fmt.Fprintf(b, "* λ: %s\n* ν: %s\n* sampling windows %v and %v\n\n",
		worst.Lambda.Format(g), worst.Nu.Format(g), worst.WindowLambda, worst.WindowNu)

	if opts.Optimize {
		plan, _, err := a.OptimizeTask(task, opts.MaxChains)
		if err != nil {
			return err
		}
		fmt.Fprintf(b, "### Algorithm 1 recommendation\n\n")
		if plan.L <= 0 {
			b.WriteString("The worst pair's sampling windows are already aligned; no buffer helps.\n\n")
		} else {
			fmt.Fprintf(b, "Set the buffer %s → %s to capacity %d (window shift L = %v): bound %v → %v.\n\n",
				g.Task(plan.Edge.Src).Name, g.Task(plan.Edge.Dst).Name,
				plan.Cap, plan.L, plan.Before, plan.After)
		}
	}
	return nil
}
