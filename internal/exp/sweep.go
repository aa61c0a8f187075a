package exp

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/trace/span"
)

// sweepSpec declares one experiment sweep: what to evaluate per
// (point, graph) and which tables the per-graph rows fill. The shared
// scaffold — the points × graphs-per-point loop, the bounded worker
// fan-out with first-error cancellation, per-worker span tracks,
// progress sinks, the workload span and used-graph count, the
// index-addressed row slots that keep the column means deterministic
// under parallelism, and the log line per point — lives once in
// runSweep; every Fig. 6 panel, BoundsSweep, LatencySweep, FleetSweep
// and ablation is a spec.
type sweepSpec struct {
	// prefix labels points ("n=", "len=", "tail=", "util=", "zones=")
	// in progress and log lines, sink labels and errors; without its
	// "=" it names the point in the workload span.
	prefix string
	// checkPoint, when non-nil, validates a point's X value before any
	// graph work; its error aborts the sweep as-is.
	checkPoint func(x int) error
	// eval evaluates the gi-th graph of point x (cfg.Points[pi] == x)
	// and returns its row: one cell per column of tables, in order, NaN
	// for a cell that stays out of its column's mean. A nil row
	// abandons the graph (degenerate or unschedulable draws); a non-nil
	// error aborts the sweep, wrapped with the graph's identity. eval
	// must derive all randomness from (pi, gi) so the parallel fan-out
	// is deterministic.
	eval func(ctx context.Context, cfg Config, tk *span.Track, x, pi, gi int) ([]float64, error)
	// tables receive one row per point: the column means, split across
	// the tables in order.
	tables []*Table
}

// runSweep drives one spec over cfg.Points × cfg.GraphsPerPoint.
func runSweep(cfg Config, spec sweepSpec) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	ncols := 0
	for _, tbl := range spec.tables {
		ncols += len(tbl.Columns)
	}
	ctx := context.Background()
	cfg.sweepBegin()
	for pi, x := range cfg.Points {
		if spec.checkPoint != nil {
			if err := spec.checkPoint(x); err != nil {
				return err
			}
		}
		cfg.pointBegin(spec.prefix, x)
		rows := make([][]float64, cfg.GraphsPerPoint)
		err := cfg.runner(spec.prefix, x).RunIndexed(ctx, cfg.GraphsPerPoint, func(ctx context.Context, worker, gi int) error {
			row, err := spec.evalGraph(ctx, cfg, cfg.Tracer.WorkerTrack(worker), x, pi, gi, ncols)
			if err != nil {
				return fmt.Errorf("point %s%d graph %d: %w", spec.prefix, x, gi, err)
			}
			rows[gi] = row
			return nil
		})
		if err != nil {
			return err
		}
		used := 0
		for _, row := range rows {
			if row != nil {
				used++
			}
		}
		if used == 0 {
			return fmt.Errorf("exp: no usable graphs at %s%d", spec.prefix, x)
		}
		means := columnMeans(rows, ncols)
		if cfg.Log != nil {
			var b strings.Builder
			fmt.Fprintf(&b, "%s%d:", spec.prefix, x)
			for i, col := range spec.tables[0].Columns {
				fmt.Fprintf(&b, " %s=%.3f", col, means[i])
			}
			fmt.Fprintf(cfg.Log, "%s (%d graphs)\n", b.String(), used)
		}
		for _, tbl := range spec.tables {
			k := len(tbl.Columns)
			tbl.AddRow(x, means[:k:k]...)
			means = means[k:]
		}
	}
	return nil
}

// evalGraph wraps one eval call in the test hook and the workload span,
// checks its row against the ncols columns, and counts the graph as
// used when it returns one.
func (spec *sweepSpec) evalGraph(ctx context.Context, cfg Config, tk *span.Track, x, pi, gi, ncols int) ([]float64, error) {
	if failGraphHook != nil {
		if err := failGraphHook(pi, gi); err != nil {
			return nil, err
		}
	}
	ws := tk.Start("workload")
	defer ws.End(span.Int(strings.TrimSuffix(spec.prefix, "="), int64(x)), span.Int("graph", int64(gi)))
	row, err := spec.eval(ctx, cfg, tk, x, pi, gi)
	if err != nil || row == nil {
		return nil, err
	}
	if len(row) != ncols {
		return nil, fmt.Errorf("exp: %s: row has %d cells for %d columns", spec.tables[0].Title, len(row), ncols)
	}
	graphsUsed.Inc()
	return row, nil
}

// columnMeans averages each of the ncols columns over the rows that
// have a number there: nil rows (abandoned graphs) and NaN cells stay
// out. Each sum runs in row order and divides once, so a mean is the
// same float64 whatever order the workers finished in. A column with
// no number averages to 0.
func columnMeans(rows [][]float64, ncols int) []float64 {
	means := make([]float64, ncols)
	for c := range means {
		var sum float64
		n := 0
		for _, row := range rows {
			if row != nil && !math.IsNaN(row[c]) {
				sum += row[c]
				n++
			}
		}
		if n > 0 {
			means[c] = sum / float64(n)
		}
	}
	return means
}

// incRatio is the incremental ratio (bound − sim)/sim of Fig. 6(b)/(d),
// NaN where the graph's Sim is 0 so it stays out of the ratio's mean.
func incRatio(bound, sim float64) float64 {
	if sim <= 0 {
		return math.NaN()
	}
	return (bound - sim) / sim
}
