// Package cli is the shared frontend runtime of the disparity-* tools.
// Every command declares which of the common flags it supports in
// Frontends — the single source of truth behind the flag registration,
// the observability bootstrap (CPU profile, Chrome trace, live
// telemetry, run manifest, decision record), and the README's
// shared-flag table — and drives one App through Parse → Start →
// (work) → Finish, instead of each main.go wiring pprof, span tracers,
// telemetry servers, and manifests by hand.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"sort"
	"strings"

	"repro/internal/explain"
	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/trace/span"
)

// Flags is the bitmask of shared flags a frontend opts into.
type Flags uint

const (
	// Metrics is -metrics: dump the internal counter/histogram registry
	// after the run.
	Metrics Flags = 1 << iota
	// Pprof is -pprof FILE: write a CPU profile of the run.
	Pprof
	// Trace is -trace FILE: write a Chrome trace-event JSON.
	Trace
	// Telemetry is -telemetry ADDR: serve live /metrics, /progress,
	// and pprof over HTTP while the run is in flight.
	Telemetry
	// Manifest is -manifest FILE: write a JSON run manifest (seed,
	// config, stage-time breakdown).
	Manifest
	// Seed is -seed N: the deterministic random seed.
	Seed
	// Workers is -workers N: parallel evaluations (0 = all cores).
	Workers
	// Explain is -explain FILE: write a per-run decision record
	// (engaged optimizations, fallback reason codes, worst-case
	// witness) as JSON.
	Explain
)

// Frontend declares one command's use of the shared flag block.
type Frontend struct {
	// Flags selects which shared flags the command registers.
	Flags Flags
	// SeedDefault is the -seed default. Commands with default 0 treat
	// the zero value as "keep the built-in seed".
	SeedDefault int64
	// TraceObject names what -trace records ("sweep", "analysis",
	// "run") in the flag's usage text.
	TraceObject string
}

// Frontends is the registry of the repository's commands: which shared
// flags each one takes. The README's shared-flag table is generated
// from this map (see MarkdownFlagTable and the drift test).
var Frontends = map[string]Frontend{
	"disparity-gen": {
		Flags:       Seed,
		SeedDefault: 1,
	},
	"disparity-analyze": {
		Flags:       Metrics | Pprof | Trace | Explain,
		TraceObject: "analysis",
	},
	"disparity-sim": {
		Flags:       Metrics | Pprof | Trace | Telemetry | Manifest | Seed | Explain,
		SeedDefault: 1,
		TraceObject: "run",
	},
	"disparity-opt": {
		Flags: Metrics | Pprof | Explain,
	},
	"disparity-report": {
		Flags: Metrics | Pprof | Explain,
	},
	"disparity-exp": {
		Flags:       Metrics | Pprof | Trace | Telemetry | Manifest | Seed | Workers | Explain,
		TraceObject: "sweep",
	},
}

// flagDefs fixes the shared flags' names, order, and generic usage
// text — both for registration and for the generated README table.
var flagDefs = []struct {
	bit  Flags
	name string
	desc string
}{
	{Metrics, "metrics", "dump internal counters and histograms after the run"},
	{Pprof, "pprof", "write a CPU profile of the run to this file"},
	{Trace, "trace", "write a Chrome trace-event JSON of the %s (view in ui.perfetto.dev)"},
	{Telemetry, "telemetry", "serve live telemetry on this address (e.g. :9090): Prometheus /metrics, /progress JSON, pprof"},
	{Manifest, "manifest", "write a JSON run manifest (seed, config, stage-time breakdown) to this file"},
	{Seed, "seed", "random seed"},
	{Workers, "workers", "parallel graph evaluations (0 = all cores)"},
	{Explain, "explain", "write a per-run decision record (engaged optimizations, reason codes, worst-case witness) as JSON to this file"},
}

// App carries one command invocation's shared flag values and the
// observability plumbing behind them.
type App struct {
	// Name is the command name ("disparity-exp"); it prefixes every
	// diagnostic line, matching the historical per-command output.
	Name string
	// Tracer is non-nil between Start and Close when -trace was given;
	// commands hang their spans off it.
	Tracer *span.Tracer
	// Tracker is non-nil between Start and Close when -telemetry was
	// given; commands with live progress feed it (it implements
	// exp.ProgressSink).
	Tracker *telemetry.Tracker
	// Explain is non-nil between Start and Finish when -explain was
	// given; commands feed it method outcomes, sim summaries, and
	// witnesses. It is nil-safe, so commands call it unconditionally.
	Explain *explain.Recorder

	fe   Frontend
	fs   *flag.FlagSet
	errW io.Writer

	dumpMetrics *bool
	pprofPath   *string
	tracePath   *string
	teleAddr    *string
	maniPath    *string
	seed        *int64
	workers     *int
	explainPath *string

	manifest  *telemetry.Manifest
	pprofFile *os.File
	server    *telemetry.Server
}

// New builds the App for a command registered in Frontends (unknown
// names panic: the registry is the contract) and registers its shared
// flags on a fresh FlagSet. Command-specific flags go on FlagSet().
func New(name string) *App {
	fe, ok := Frontends[name]
	if !ok {
		panic(fmt.Sprintf("cli: command %q not in Frontends", name))
	}
	a := &App{
		Name: name,
		fe:   fe,
		fs:   flag.NewFlagSet(name, flag.ContinueOnError),
		errW: os.Stderr,
	}
	for _, d := range flagDefs {
		if fe.Flags&d.bit == 0 {
			continue
		}
		desc := d.desc
		if d.bit == Trace {
			desc = fmt.Sprintf(desc, fe.TraceObject)
		}
		switch d.bit {
		case Metrics:
			a.dumpMetrics = a.fs.Bool(d.name, false, desc)
		case Pprof:
			a.pprofPath = a.fs.String(d.name, "", desc)
		case Trace:
			a.tracePath = a.fs.String(d.name, "", desc)
		case Telemetry:
			a.teleAddr = a.fs.String(d.name, "", desc)
		case Manifest:
			a.maniPath = a.fs.String(d.name, "", desc)
		case Seed:
			if fe.SeedDefault == 0 {
				desc = "override random seed"
			}
			a.seed = a.fs.Int64(d.name, fe.SeedDefault, desc)
		case Workers:
			a.workers = a.fs.Int(d.name, 0, desc)
		case Explain:
			a.explainPath = a.fs.String(d.name, "", desc)
		}
	}
	return a
}

// FlagSet returns the command's flag set for registering its own flags.
func (a *App) FlagSet() *flag.FlagSet { return a.fs }

// Parse parses args. A manifest, when requested, is created here so it
// captures the invocation's exact arguments and start time.
func (a *App) Parse(args []string) error {
	if err := a.fs.Parse(args); err != nil {
		return err
	}
	if a.maniPath != nil && *a.maniPath != "" {
		a.manifest = telemetry.NewManifest(a.Name, args)
	}
	return nil
}

// Seed returns the -seed value (the frontend's default when the command
// has no seed flag).
func (a *App) Seed() int64 {
	if a.seed == nil {
		return a.fe.SeedDefault
	}
	return *a.seed
}

// Workers returns the -workers value (0 when the command has none).
func (a *App) Workers() int {
	if a.workers == nil {
		return 0
	}
	return *a.workers
}

// ExplainPath returns the -explain value ("" when the command has none
// or the flag was not given).
func (a *App) ExplainPath() string {
	if a.explainPath == nil {
		return ""
	}
	return *a.explainPath
}

// Start brings up the run's observability: the CPU profile, the span
// tracer, the live telemetry server with its progress tracker, and the
// decision recorder. Close undoes all of it; call it deferred right
// after Start succeeds.
func (a *App) Start() error {
	if a.pprofPath != nil && *a.pprofPath != "" {
		f, err := os.Create(*a.pprofPath)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		a.pprofFile = f
	}
	if a.tracePath != nil && *a.tracePath != "" {
		a.Tracer = span.New()
	}
	if a.explainPath != nil && *a.explainPath != "" {
		// Created after the other plumbing so its counter-delta base
		// excludes setup; a.Explain stays nil (a valid disabled
		// recorder) when the flag is absent.
		a.Explain = explain.New(a.Name)
	}
	if a.teleAddr != nil && *a.teleAddr != "" {
		a.Tracker = telemetry.NewTracker()
		a.Tracker.Jobs = metrics.C("exp.sim.jobs").Load
		a.server = &telemetry.Server{Tracker: a.Tracker}
		addr, err := a.server.Start(*a.teleAddr)
		if err != nil {
			a.Close()
			return err
		}
		fmt.Fprintf(a.errW, "%s: telemetry on http://%s\n", a.Name, addr)
	}
	return nil
}

// Close stops the CPU profile and shuts the telemetry server down. Safe
// to call once after a successful Start (or after a failed one).
func (a *App) Close() {
	if a.pprofFile != nil {
		pprof.StopCPUProfile()
		a.pprofFile.Close()
		a.pprofFile = nil
	}
	if a.server != nil {
		a.server.Close()
		a.server = nil
	}
}

// Finish emits the run's closing artifacts in the standard order: the
// metrics dump to metricsOut, the Chrome trace, the manifest (stamped
// with the run's effective seed and config), then the decision record.
// Trace, manifest, and explain confirmations go to stderr.
func (a *App) Finish(metricsOut io.Writer, seed int64, config map[string]any) error {
	if a.dumpMetrics != nil && *a.dumpMetrics {
		fmt.Fprintln(metricsOut)
		fmt.Fprintln(metricsOut, "metrics:")
		if err := metrics.Fprint(metricsOut); err != nil {
			return err
		}
	}
	if a.Tracer != nil {
		if err := a.Tracer.WriteChromeFile(*a.tracePath); err != nil {
			return err
		}
		fmt.Fprintf(a.errW, "%s: trace with %d spans written to %s\n",
			a.Name, a.Tracer.SpanCount(), *a.tracePath)
	}
	if a.manifest != nil {
		a.manifest.Seed = seed
		a.manifest.Config = config
		a.manifest.Finish(nil)
		if err := a.manifest.WriteFile(*a.maniPath); err != nil {
			return err
		}
		fmt.Fprintf(a.errW, "%s: manifest written to %s\n", a.Name, *a.maniPath)
	}
	if a.Explain != nil {
		if err := a.Explain.WriteFile(*a.explainPath); err != nil {
			return err
		}
		fmt.Fprintf(a.errW, "%s: decision record written to %s\n", a.Name, *a.explainPath)
	}
	return nil
}

// MarkdownFlagTable renders the shared-flag support matrix from
// Frontends as a Markdown table — the README embeds it between
// shared-flags markers, and cli's drift test keeps the two in sync.
func MarkdownFlagTable() string {
	names := make([]string, 0, len(Frontends))
	for name := range Frontends {
		names = append(names, name)
	}
	sort.Strings(names)

	var b strings.Builder
	b.WriteString("| flag | purpose |")
	for _, name := range names {
		fmt.Fprintf(&b, " `%s` |", strings.TrimPrefix(name, "disparity-"))
	}
	b.WriteString("\n|---|---|")
	for range names {
		b.WriteString("---|")
	}
	b.WriteString("\n")
	for _, d := range flagDefs {
		desc := d.desc
		if d.bit == Trace {
			desc = fmt.Sprintf(desc, "run")
		}
		fmt.Fprintf(&b, "| `-%s` | %s |", d.name, desc)
		for _, name := range names {
			cell := ""
			if Frontends[name].Flags&d.bit != 0 {
				cell = "✓"
			}
			fmt.Fprintf(&b, " %s |", cell)
		}
		b.WriteString("\n")
	}
	return b.String()
}
