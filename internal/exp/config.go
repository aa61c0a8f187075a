package exp

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"strconv"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/timeu"
	"repro/internal/trace/span"
)

// Stage times are histograms, not plain timers: a sweep spans graphs
// from 5 to 35 tasks, whose analysis times differ by orders of
// magnitude, and the p50/p90/p99 split is what distinguishes "every
// workload is slow" from "a few outliers dominate".
var (
	graphsGenerated = metrics.C("exp.graphs.generated")
	graphsUsed      = metrics.C("exp.graphs.used")
	graphsTruncated = metrics.C("exp.graphs.truncated")
	genHist         = metrics.H("exp.stage.generate")
	analysisHist    = metrics.H("exp.stage.analysis")
	simHist         = metrics.H("exp.stage.simulate")
)

// failGraphHook, when non-nil, is called at the start of every graph
// evaluation; a non-nil return aborts the sweep with that error. Test
// seam for the error-propagation path (see fig6_errors_test.go).
var failGraphHook func(point, gi int) error

// Config parameterizes the Fig. 6 experiments. The zero value is not
// usable; start from Defaults or PaperScale.
type Config struct {
	// Points is the X axis: task counts for Fig. 6(a)/(b), per-chain task
	// counts for Fig. 6(c)/(d).
	Points []int
	// GraphsPerPoint is how many random graphs are averaged per point.
	GraphsPerPoint int
	// OffsetsPerGraph is how many random offset assignments each graph is
	// simulated with; the per-graph Sim value is the maximum over them
	// (the tightest achievable lower bound the runs exhibit).
	OffsetsPerGraph int
	// Horizon is the simulated time per run.
	Horizon timeu.Time
	// Warmup discards early jobs so buffered channels reach steady state.
	Warmup timeu.Time
	// EdgeFactor sets m = EdgeFactor·n edges for the GNM graphs. The
	// paper does not state its m; 2.0 gives the moderately dense DAGs its
	// description implies.
	EdgeFactor float64
	// TailLen reserves that many of each graph's n tasks for a shared
	// pipeline tail after the last fusion point (clamped so the random
	// part keeps at least 5 tasks; 0 disables). The paper's generation
	// is "GNM with a single sink"; without a shared tail, such
	// multi-source graphs always contain a structure-free worst pair and
	// P-diff equals S-diff at the task level, flattening Fig. 6(a)'s
	// separation. The tail reproduces the motivating architecture
	// (fusion → planning → control, Fig. 1) where the separation shows.
	TailLen int
	// ECUs is the number of compute ECUs.
	ECUs int
	// Exec draws job execution times during simulation.
	Exec sim.ExecModel
	// Seed makes the whole experiment deterministic.
	Seed int64
	// MaxChains caps path enumeration per graph; graphs exceeding it are
	// regenerated (exponential-path GNM outliers).
	MaxChains int
	// Workers bounds concurrent graph evaluations (0 = GOMAXPROCS).
	Workers int
	// DisableJumpAhead forces the simulation method to execute every
	// job instead of skipping repeated steady-state hyperperiod cycles.
	// Results are bit-identical either way; the switch exists for
	// benchmarking and differential testing.
	DisableJumpAhead bool
	// Log, when non-nil, receives one summary line per point.
	Log io.Writer
	// Progress, when non-nil, receives one line per finished graph
	// ("n=15: graphs 7/10"), for coarse live progress on long sweeps.
	Progress io.Writer
	// Tracer, when non-nil, records structured spans of the sweep: one
	// track per worker, a span per workload with stage children
	// (generate, analysis, simulate) and the engine- and analysis-level
	// spans below them. Write the result with span.WriteChromeFile.
	Tracer *span.Tracer
	// Sink, when non-nil, receives live progress callbacks (sweep
	// start, current point, settled workloads) — the feed behind a
	// telemetry /progress endpoint.
	Sink ProgressSink
}

// ProgressSink receives live sweep progress. telemetry.Tracker
// implements it; the interface lives here so exp does not depend on
// the HTTP layer.
type ProgressSink interface {
	// Begin announces the expected workload (graph-evaluation) total.
	Begin(total int)
	// Point announces the sweep point now being evaluated ("n=15").
	Point(label string)
	// WorkloadDone counts one settled workload.
	WorkloadDone()
}

// Defaults returns a configuration sized for interactive runs and tests:
// the paper's topology parameters with a shorter simulation horizon.
func Defaults() Config {
	return Config{
		Points:          []int{5, 10, 15, 20, 25, 30, 35},
		GraphsPerPoint:  10,
		OffsetsPerGraph: 10,
		Horizon:         5 * timeu.Second,
		Warmup:          timeu.Second,
		EdgeFactor:      2.0,
		TailLen:         3,
		ECUs:            4,
		Exec:            sim.ExtremesExec{P: 0.5},
		Seed:            1,
		MaxChains:       1 << 14,
	}
}

// PaperScale returns the full evaluation setup of the paper: 10 graphs ×
// 10 offset runs × 10 simulated minutes per configuration. Expect long
// wall-clock times.
func PaperScale() Config {
	cfg := Defaults()
	cfg.Horizon = 10 * timeu.Minute
	return cfg
}

func (cfg *Config) workers() int {
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (cfg *Config) validate() error {
	if len(cfg.Points) == 0 {
		return errors.New("exp: no points")
	}
	if cfg.GraphsPerPoint < 1 || cfg.OffsetsPerGraph < 1 {
		return errors.New("exp: need at least one graph and one offset run per point")
	}
	if cfg.Horizon <= 0 {
		return errors.New("exp: non-positive horizon")
	}
	if cfg.Exec == nil {
		return errors.New("exp: nil exec model")
	}
	return nil
}

// runner builds the shared bounded-worker runner for one sweep point.
func (cfg *Config) runner(prefix string, x int) par.Runner {
	r := par.Runner{Workers: cfg.workers()}
	if cfg.Progress != nil || cfg.Sink != nil {
		progress, sink := cfg.Progress, cfg.Sink
		r.OnProgress = func(done, total int) {
			if progress != nil {
				fmt.Fprintf(progress, "%s%d: graphs %d/%d\n", prefix, x, done, total)
			}
			if sink != nil {
				sink.WorkloadDone()
			}
		}
	}
	return r
}

// sweepBegin announces a sweep to the progress sink: the workload
// total is every point times every graph.
func (cfg *Config) sweepBegin() {
	if cfg.Sink != nil {
		cfg.Sink.Begin(len(cfg.Points) * cfg.GraphsPerPoint)
	}
}

// pointBegin announces one sweep point to the progress sink.
func (cfg *Config) pointBegin(prefix string, n int) {
	if cfg.Sink != nil {
		cfg.Sink.Point(prefix + strconv.Itoa(n))
	}
}

// noteTruncation records a graph whose chain enumeration hit the
// MaxChains cap. Sweeps regenerate such graphs instead of averaging a
// bound over a partial chain set; the counter and log line keep the
// cap's effect visible rather than silently shrinking the sample.
func (cfg *Config) noteTruncation(label string) {
	graphsTruncated.Inc()
	if cfg.Log != nil {
		fmt.Fprintf(cfg.Log, "%s: chain enumeration truncated at MaxChains=%d; regenerating\n",
			label, cfg.MaxChains)
	}
}

// stage opens one workload stage: a histogram measurement plus, when
// tracing, a span on the worker's track. The returned func closes both.
func stage(h *metrics.Histogram, tk *span.Track, name string) func() {
	stop := h.Start()
	sp := tk.Start(name)
	return func() {
		sp.End()
		stop()
	}
}

// newAnalysis builds the analysis for one generated graph, recording
// the WCRT fixed point and analysis setup as a "wcrt" span. ok=false
// means the analysis rejects the graph (unschedulable, or mixed
// semantics) and it should be regenerated.
func (cfg *Config) newAnalysis(g *model.Graph, tk *span.Track) (*core.Analysis, bool) {
	sp := tk.Start("wcrt")
	a, err := core.New(g)
	sp.End()
	return a, err == nil
}

// greedyRounds caps Algorithm 1's greedy multi-pair loop wherever a
// sweep computes S-diff-B.
const greedyRounds = 8

// Column labels of the paper's four methods: the Theorem 1 and 2
// bounds under core.Method's names, Algorithm 1's buffered S-diff, and
// the simulated maximum of Fig. 6.
const (
	colPDiff  = "P-diff"
	colSDiff  = "S-diff"
	colSDiffB = "S-diff-B"
	colSim    = "Sim"
)
