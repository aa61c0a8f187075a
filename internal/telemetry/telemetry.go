// Package telemetry serves live observability for long-running sweeps:
// an opt-in HTTP endpoint exposing the metrics registry in Prometheus
// text exposition format (/metrics), a JSON live-progress view
// (/progress: workloads done/total, jobs simulated, ETA), Go's expvar
// (/debug/vars), and the net/http/pprof profilers (/debug/pprof/).
//
// The server is deliberately pull-only and stateless: it reads the
// same metrics.Registry the pipeline already writes, so enabling it
// adds no work to the sweep itself beyond the progress callbacks the
// runner already makes.
package telemetry

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Server serves the telemetry endpoint. Zero value + Start is the
// intended use; all fields are optional.
type Server struct {
	// Registry is the metrics source; nil selects metrics.Default.
	Registry *metrics.Registry
	// Tracker, when non-nil, feeds /progress.
	Tracker *Tracker

	srv *http.Server
	ln  net.Listener
}

// Start listens on addr (e.g. ":9090", "127.0.0.1:0") and serves in a
// background goroutine. It returns the bound address, so ":0" works in
// tests and log lines can print a clickable URL.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("telemetry: %w", err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.Handler()}
	go s.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return ln.Addr().String(), nil
}

// Close stops the listener and any in-flight handlers.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

// Handler returns the telemetry mux (exposed for tests and for callers
// embedding the endpoint in their own server).
func (s *Server) Handler() http.Handler {
	reg := s.Registry
	if reg == nil {
		reg = metrics.Default
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, reg)
		WriteDerivedGauges(w, reg)
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		enc.Encode(s.Tracker.Progress()) //nolint:errcheck // best-effort HTTP write
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "disparity telemetry\n\n/metrics\n/progress\n/debug/vars\n/debug/pprof/\n")
	})
	return mux
}

// promName sanitizes an instrument name into a Prometheus metric name:
// dots and other invalid runes become underscores, and everything is
// prefixed with "disparity_" to namespace the process.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("disparity_")
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
			b.WriteRune(r)
		case r >= '0' && r <= '9' && i > 0:
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus renders the registry in the text exposition format
// (version 0.0.4). Counters map to counters, timers to summaries
// (sum/count only), histograms to native Prometheus histograms with
// the power-of-two bucket bounds in seconds. Durations are seconds, as
// the Prometheus conventions require.
func WritePrometheus(w io.Writer, reg *metrics.Registry) error {
	ex := reg.Export()
	for _, c := range ex.Counters {
		name := promName(c.Name) + "_total"
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, c.Value); err != nil {
			return err
		}
	}
	for _, t := range ex.Timers {
		name := promName(t.Name) + "_seconds"
		if _, err := fmt.Fprintf(w, "# TYPE %s summary\n%s_sum %s\n%s_count %d\n",
			name, name, seconds(t.TotalNS), name, t.Count); err != nil {
			return err
		}
	}
	for _, h := range ex.Histograms {
		name := promName(h.Name) + "_seconds"
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
			return err
		}
		var cum int64
		for i, c := range h.Buckets {
			cum += c
			if c == 0 || i == metrics.HistBuckets-1 {
				// Cumulative counts stay monotone over any subset of
				// bounds, so empty buckets are skipped to keep the output
				// small (a stage spanning ns..s would otherwise emit 30
				// lines); the top bucket is covered by the +Inf line.
				continue
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, seconds(metrics.BucketUpper(i)), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
			name, h.Count, name, seconds(h.SumNS), name, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// WriteDerivedGauges renders the decision-telemetry ratio gauges the
// raw counters imply: the pair-bound
// dominance prune ratio, and the jump-ahead engagement rate across
// sweep simulation runs. Gauges with no underlying activity are
// omitted so scrapes before any run stay clean.
func WriteDerivedGauges(w io.Writer, reg *metrics.Registry) error {
	ex := reg.Export()
	counters := make(map[string]int64, len(ex.Counters))
	for _, c := range ex.Counters {
		counters[c.Name] = c.Value
	}
	ratio := func(num, den int64) string {
		return strconv.FormatFloat(float64(num)/float64(den), 'g', -1, 64)
	}

	if bounded, pruned := counters["core.pairs.bounded"], counters["core.pairs.pruned"]; bounded+pruned > 0 {
		if _, err := fmt.Fprintf(w, "# TYPE disparity_pair_prune_ratio gauge\ndisparity_pair_prune_ratio %s\n",
			ratio(pruned, bounded+pruned)); err != nil {
			return err
		}
	}

	// Fraction of the pair volume skipped wholesale by the subtree
	// branch-and-bound, over everything the bound-only loop saw:
	// evaluated + per-pair pruned + block-pruned pairs.
	if subtree := counters["core.pairs.subtree_pruned"]; subtree > 0 {
		total := counters["core.pairs.bounded"] + counters["core.pairs.pruned"] + subtree
		if _, err := fmt.Fprintf(w, "# TYPE disparity_subtree_prune_ratio gauge\ndisparity_subtree_prune_ratio %s\n",
			ratio(subtree, total)); err != nil {
			return err
		}
	}

	var engaged, jumpTotal int64
	for name, v := range counters {
		if strings.HasPrefix(name, "exp.sim.jump.") {
			jumpTotal += v
		}
	}
	engaged = counters["exp.sim.jump.engaged"]
	if jumpTotal > 0 {
		if _, err := fmt.Fprintf(w, "# TYPE disparity_jump_engagement_rate gauge\ndisparity_jump_engagement_rate %s\n",
			ratio(engaged, jumpTotal)); err != nil {
			return err
		}
	}

	if truncated := counters["chains.truncated"] + counters["core.disparity.truncated"]; truncated > 0 {
		if _, err := fmt.Fprintf(w, "# TYPE disparity_truncations gauge\ndisparity_truncations %d\n", truncated); err != nil {
			return err
		}
	}

	// Fraction of built chain indexes whose c=1 fast test ran on exact
	// path bitsets (single- or multi-word) rather than falling back to
	// the full per-pair decomposition under the mask word budget.
	word, multi, skipped := counters["chains.masks.word"], counters["chains.masks.multi"], counters["chains.masks.skipped"]
	if total := word + multi + skipped; total > 0 {
		if _, err := fmt.Fprintf(w, "# TYPE disparity_mask_exact gauge\ndisparity_mask_exact %s\n",
			ratio(word+multi, total)); err != nil {
			return err
		}
	}
	return nil
}

// seconds renders nanoseconds as a decimal seconds literal.
func seconds(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e9, 'g', -1, 64)
}

// Tracker accumulates live sweep progress for /progress. It is fed by
// the experiment pipeline (exp.Config.Sink) and read by the HTTP
// handler; all methods are safe for concurrent use and safe on a nil
// receiver (no-ops / zero progress), so wiring it is unconditional.
type Tracker struct {
	// Jobs, when non-nil, supplies the simulated-jobs total for the
	// progress view (typically metrics.C("exp.sim.jobs").Load).
	Jobs func() int64

	mu    sync.Mutex
	begun time.Time
	total int
	done  int
	point string
}

// NewTracker returns a Tracker; call Begin when the workload total is
// known.
func NewTracker() *Tracker { return &Tracker{} }

// Begin records the sweep start and the expected workload total
// (0 = unknown; ETA is then omitted).
func (t *Tracker) Begin(total int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.begun = time.Now()
	t.total = total
	t.done = 0
	t.mu.Unlock()
}

// Point records the sweep point now being evaluated ("n=15").
func (t *Tracker) Point(label string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.point = label
	t.mu.Unlock()
}

// WorkloadDone counts one settled workload (one graph evaluated).
func (t *Tracker) WorkloadDone() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.done++
	t.mu.Unlock()
}

// Progress is the JSON document served at /progress.
type Progress struct {
	Running        bool    `json:"running"`
	ElapsedSec     float64 `json:"elapsed_sec"`
	Point          string  `json:"point,omitempty"`
	WorkloadsDone  int     `json:"workloads_done"`
	WorkloadsTotal int     `json:"workloads_total"`
	Fraction       float64 `json:"fraction"`
	JobsSimulated  int64   `json:"jobs_simulated"`
	ETASec         float64 `json:"eta_sec,omitempty"`
}

// Progress snapshots the current state. ETA extrapolates linearly from
// the settled-workload rate; it is absent until the first workload
// settles or when the total is unknown.
func (t *Tracker) Progress() Progress {
	if t == nil {
		return Progress{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := Progress{
		Running:        !t.begun.IsZero(),
		Point:          t.point,
		WorkloadsDone:  t.done,
		WorkloadsTotal: t.total,
	}
	if !t.begun.IsZero() {
		p.ElapsedSec = time.Since(t.begun).Seconds()
	}
	if t.total > 0 {
		p.Fraction = float64(t.done) / float64(t.total)
	}
	if t.done > 0 && t.total > t.done {
		p.ETASec = p.ElapsedSec / float64(t.done) * float64(t.total-t.done)
	}
	if t.Jobs != nil {
		p.JobsSimulated = t.Jobs()
	}
	return p
}
