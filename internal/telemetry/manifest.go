package telemetry

import (
	"encoding/json"
	"os"
	"runtime"
	"time"

	"repro/internal/metrics"
)

// Manifest is the per-run provenance record written by the CLI
// frontends under -manifest: everything needed to attribute a BENCH or
// EXPERIMENTS entry to the exact run that produced it — seed and
// configuration, toolchain and machine, wall-clock window, and the
// stage-time breakdown (count, total, p50/p90/p99 per instrumented
// stage).
type Manifest struct {
	Command string   `json:"command"`
	Args    []string `json:"args,omitempty"`

	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`

	Start       time.Time `json:"start"`
	End         time.Time `json:"end"`
	DurationSec float64   `json:"duration_sec"`

	Seed   int64 `json:"seed,omitempty"`
	Config any   `json:"config,omitempty"`

	// Stages is the per-stage wall-clock breakdown, one entry per
	// histogram in the registry, sorted by name.
	Stages []Stage `json:"stages,omitempty"`
	// Counters holds every counter value at Finish.
	Counters map[string]int64 `json:"counters,omitempty"`
}

// Stage is one stage histogram's time breakdown.
type Stage struct {
	Name     string  `json:"name"`
	Count    int64   `json:"count"`
	TotalSec float64 `json:"total_sec"`
	P50Sec   float64 `json:"p50_sec,omitempty"`
	P90Sec   float64 `json:"p90_sec,omitempty"`
	P99Sec   float64 `json:"p99_sec,omitempty"`
}

// NewManifest starts a manifest for the named command: records the
// environment and the start instant.
func NewManifest(command string, args []string) *Manifest {
	return &Manifest{
		Command:    command,
		Args:       args,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Start:      time.Now(),
	}
}

// Finish stamps the end time and captures the stage breakdown and
// counters from the registry (nil selects metrics.Default).
func (m *Manifest) Finish(reg *metrics.Registry) {
	m.End = time.Now()
	m.DurationSec = m.End.Sub(m.Start).Seconds()
	if reg == nil {
		reg = metrics.Default
	}
	ex := reg.Export()
	m.Counters = ex.CounterValues()
	m.Stages = m.Stages[:0]
	for _, h := range ex.Histograms {
		m.Stages = append(m.Stages, Stage{
			Name:     h.Name,
			Count:    h.Count,
			TotalSec: float64(h.SumNS) / 1e9,
			P50Sec:   h.P50.Seconds(),
			P90Sec:   h.P90.Seconds(),
			P99Sec:   h.P99.Seconds(),
		})
	}
}

// WriteFile writes the manifest as indented JSON (0644).
func (m *Manifest) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
