// Command disparity-opt reduces the worst-case time disparity of a task
// by design: Algorithm 1's buffer sizing (optionally applied greedily
// across chain pairs) and/or release-offset search, writing the
// optimized graph back as JSON.
//
// Usage:
//
//	disparity-opt -graph g.json [-task fusion] [-buffers] [-greedy]
//	              [-offsets] [-out optimized.json]
package main

import (
	"fmt"
	"io"
	"os"

	disparity "repro"
	"repro/internal/cli"
	"repro/internal/offsetopt"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "disparity-opt:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	app := cli.New("disparity-opt")
	fs := app.FlagSet()
	graphPath := fs.String("graph", "", "path to the graph JSON (required)")
	taskName := fs.String("task", "", "task to optimize (default: the sink)")
	buffers := fs.Bool("buffers", true, "apply Algorithm 1 buffer sizing")
	greedy := fs.Bool("greedy", true, "apply Algorithm 1 greedily across pairs (else once)")
	offsets := fs.Bool("offsets", false, "also search release offsets (simulation-guided)")
	steps := fs.Int("offset-steps", 8, "offset candidates per task and round")
	rounds := fs.Int("offset-rounds", 3, "offset search rounds")
	maxChains := fs.Int("max-chains", 0, "cap on enumerated chains")
	out := fs.String("out", "", "write the optimized graph JSON here (default stdout)")
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
	task, err := pickTask(g, *taskName)
	if err != nil {
		return err
	}

	a, err := disparity.Analyze(g)
	if err != nil {
		return err
	}
	before, err := a.DisparityBound(task, disparity.SDiff, *maxChains)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "S-diff before: %v\n", before.Bound)

	work := g
	if *buffers {
		if *greedy {
			res, err := a.OptimizeTaskGreedy(task, *maxChains, 0)
			if err != nil {
				return err
			}
			work = res.Graph
			for _, p := range res.Plans {
				fmt.Fprintf(os.Stderr, "buffer %s -> %s := %d (L=%v)\n",
					work.Task(p.Edge.Src).Name, work.Task(p.Edge.Dst).Name, p.Cap, p.L)
			}
			fmt.Fprintf(os.Stderr, "S-diff after buffers: %v\n", res.After)
		} else {
			plan, _, err := a.OptimizeTask(task, *maxChains)
			if err != nil {
				return err
			}
			work = g.Clone()
			if err := plan.Apply(work); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "buffer %s -> %s := %d (L=%v), bound %v -> %v\n",
				work.Task(plan.Edge.Src).Name, work.Task(plan.Edge.Dst).Name,
				plan.Cap, plan.L, plan.Before, plan.After)
		}
	}

	if *offsets {
		res, err := disparity.OptimizeOffsets(work, task, offsetopt.Config{
			Steps:  *steps,
			Rounds: *rounds,
			Exec:   disparity.ExecExtremes,
			Seeds:  2,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "offset search: achieved disparity %v -> %v (%d evaluations)\n",
			res.Before, res.After, res.Evaluations)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		of, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer of.Close()
		w = of
	}
	if err := work.WriteJSON(w); err != nil {
		return err
	}
	// Diagnostics go to stderr: stdout may BE the optimized graph.
	return app.Finish(os.Stderr, 0, nil)
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
