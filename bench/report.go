package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime/metrics"
	"sort"
	"time"
)

// metricDef is one end-to-end metric as BENCHMARK.json declares it.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd lists the end-to-end metrics in BENCHMARK.json order. Every
// workload reports all of them; "op" is the workload's timed operation.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "ops/s", "higher", 0.15},
	{"op_ms_p50", "ms", "lower", 0.15},
	{"op_ms_p90", "ms", "lower", 0.15},
	{"alloc_mb_per_op", "MB", "lower", 0.10},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report is the full record -out writes.
type report struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  int     `json:"seconds"`
	Trace    int     `json:"trace"`
	Machine  machine `json:"machine"`
	summary
	// Detail holds the workload's stage metrics (verdict, optimize,
	// simulate), fail_ratio and check_failures, and input properties.
	Detail map[string]float64 `json:"detail"`
	// RoundSpread is each end-to-end metric's quartile spread across
	// the timed rounds (across set-up repetitions for setup_s).
	RoundSpread   map[string]float64     `json:"round_spread,omitempty"`
	Spans         map[string]spanSummary `json:"spans,omitempty"`
	Digest        string                 `json:"digest,omitempty"`
	CheckFailures []string               `json:"check_failures"`
	Absent        []string               `json:"absent_counters,omitempty"`
}

// spanSummary is the traced run's view of one span name.
type spanSummary struct {
	Count    int     `json:"count"`
	Probe    bool    `json:"probe"`
	MedianMS float64 `json:"median_ms"`
	SelfMS   float64 `json:"self_median_ms"`
}

// normalized is one timed op scaled to reference speed.
type normalized struct {
	round                       int
	dur, verdict, optimize, sim float64 // ms at reference speed
	rawMS, speed                float64
	alloc                       uint64
	jobs                        int64
}

// normalize scales every timed op by the reference speed around it.
func normalize(rounds [][]sample) []normalized {
	var refs []time.Duration
	for _, ss := range rounds {
		for _, s := range ss {
			refs = append(refs, s.ref)
		}
	}
	sp := speeds(refs)
	out := make([]normalized, 0, len(refs))
	for r, ss := range rounds {
		for _, s := range ss {
			f := sp[len(out)]
			out = append(out, normalized{
				round: r, dur: ms(s.dur) * f, verdict: ms(s.verdict) * f, optimize: ms(s.optimize) * f,
				sim: ms(s.simulate) * f, rawMS: ms(s.dur), speed: f, alloc: s.alloc, jobs: s.jobs,
			})
		}
	}
	return out
}

func column(ns []normalized, get func(normalized) float64) []float64 {
	xs := make([]float64, len(ns))
	for i, n := range ns {
		xs[i] = get(n)
	}
	return xs
}

// endToEndValues computes the end-to-end metrics, their round-to-round
// spreads and the workload's detail metrics from an untraced run. Times
// are normalized to reference speed; detail carries the raw ones.
func endToEndValues(st *runStats) (vals, spreads, detail map[string]float64) {
	vals, spreads, detail = map[string]float64{}, map[string]float64{}, map[string]float64{}
	all := normalize(st.rounds)
	byRound := make([][]normalized, len(st.rounds))
	for _, n := range all {
		byRound[n.round] = append(byRound[n.round], n)
	}
	perRound := map[string][]float64{}
	var rawRates, jobRates []float64
	var totalAlloc uint64
	for _, ns := range byRound {
		var busy, rawBusy, simBusy float64
		var alloc uint64
		var jobs int64
		for _, n := range ns {
			busy += n.dur / 1e3
			rawBusy += n.rawMS / 1e3
			simBusy += n.sim / 1e3
			alloc += n.alloc
			jobs += n.jobs
		}
		totalAlloc += alloc
		durs := column(ns, func(n normalized) float64 { return n.dur })
		perRound["ops_per_s"] = append(perRound["ops_per_s"], ratio(float64(len(ns)), busy))
		perRound["op_ms_p50"] = append(perRound["op_ms_p50"], median(durs))
		perRound["op_ms_p90"] = append(perRound["op_ms_p90"], quantile(durs, 0.9))
		perRound["alloc_mb_per_op"] = append(perRound["alloc_mb_per_op"], ratio(float64(alloc)/1e6, float64(len(ns))))
		rawRates = append(rawRates, ratio(float64(len(ns)), rawBusy))
		if jobs > 0 {
			jobRates = append(jobRates, ratio(float64(jobs), simBusy))
		}
	}
	var setups, rawSetups []float64
	for _, rep := range st.setups {
		sp := speeds(rep.refs)
		var norm, raw float64
		for i, d := range rep.work {
			norm += d.Seconds() * sp[i]
			raw += d.Seconds()
		}
		setups = append(setups, norm)
		rawSetups = append(rawSetups, raw)
	}
	perRound["setup_s"] = setups

	durs := column(all, func(n normalized) float64 { return n.dur })
	vals["setup_s"] = median(setups)
	vals["ops_per_s"] = median(perRound["ops_per_s"])
	vals["op_ms_p50"] = median(durs)
	vals["op_ms_p90"] = quantile(durs, 0.9)
	vals["alloc_mb_per_op"] = ratio(float64(totalAlloc)/1e6, float64(len(all)))
	vals["peak_rss_mb"] = peakRSSMB()
	for name, xs := range perRound {
		spreads[name] = spread(xs)
	}

	// The gated tail is p90, the highest percentile stable enough
	// across seeds for a 15% bound; p95 and p99 are reported with the
	// sample count for reading only.
	detail["samples"] = float64(len(all))
	detail["op_ms_p95"] = quantile(durs, 0.95)
	detail["op_ms_p99"] = quantile(durs, 0.99)
	detail["raw_op_ms_p50"] = median(column(all, func(n normalized) float64 { return n.rawMS }))
	detail["raw_ops_per_s"] = median(rawRates)
	detail["raw_setup_s"] = median(rawSetups)
	detail["speed"] = median(column(all, func(n normalized) float64 { return n.speed }))
	for _, stage := range []struct {
		name string
		get  func(normalized) float64
	}{
		{"verdict", func(n normalized) float64 { return n.verdict }},
		{"optimize", func(n normalized) float64 { return n.optimize }},
		{"simulate", func(n normalized) float64 { return n.sim }},
	} {
		xs := column(all, stage.get)
		if quantile(xs, 1) == 0 {
			continue // the workload's op has no such stage
		}
		detail[stage.name+"_ms_p50"] = median(xs)
		detail[stage.name+"_ms_p90"] = quantile(xs, 0.9)
	}
	if len(jobRates) > 0 {
		detail["sim_jobs_per_s"] = median(jobRates)
	}
	detail["sdiff_above_pdiff"] = float64(st.sdiffAbove)
	detail["fail_ratio"] = ratio(float64(st.failed), float64(st.attempted))
	detail["check_failures"] = float64(len(st.checkFailures))
	return vals, spreads, detail
}

// gcCPU reads the cumulative GC and total CPU time of the process.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// layerValues folds the traced ops into the per-layer metrics, plus
// input properties and span summaries.
func layerValues(ops []*opTrace, gcFrac float64) (vals, detail map[string]float64, spans map[string]spanSummary, absent []string) {
	vals, detail = map[string]float64{}, map[string]float64{}
	values := func(name string) []float64 {
		xs := make([]float64, 0, len(ops))
		for _, ot := range ops {
			xs = append(xs, ot.vals[name])
		}
		return xs
	}
	for _, m := range layerMetrics {
		xs := values(m.name)
		switch m.agg {
		case aggMedian:
			vals[m.name] = median(xs)
		case aggMean, aggSum:
			var sum float64
			for _, x := range xs {
				sum += x
			}
			if m.agg == aggMean {
				sum = ratio(sum, float64(len(xs)))
			}
			vals[m.name] = sum
		case aggRun:
			vals[m.name] = gcFrac
		}
	}
	for _, name := range []string{"verdict_ms", "chains.chains", "core.pairs", "sched.max_tasks_per_ecu", "speed"} {
		detail[name] = median(values(name))
	}
	if v := detail["verdict_ms"]; v > 0 {
		detail["sched.wcrt_share"] = vals["sched.wcrt_ms"] / v
		detail["core.descent_sdiff_share"] = vals["core.descent_sdiff_ms"] / v
	}

	durs := map[string][]float64{}
	probe := map[string]bool{}
	seen := map[string]bool{}
	var selfMS []float64
	for _, ot := range ops {
		var children time.Duration
		for _, c := range ot.calls {
			durs[c.name] = append(durs[c.name], ms(c.dur))
			probe[c.name] = c.probe
			children += c.dur
		}
		selfMS = append(selfMS, ms(ot.dur-children))
		for name := range ot.absent {
			seen[name] = true
		}
	}
	spans = map[string]spanSummary{}
	for name, xs := range durs {
		// Layer calls are leaves: no bench span nests inside them.
		spans[name] = spanSummary{Count: len(xs), Probe: probe[name], MedianMS: median(xs), SelfMS: median(xs)}
	}
	var opMS []float64
	for _, ot := range ops {
		opMS = append(opMS, ms(ot.dur))
	}
	spans["op"] = spanSummary{Count: len(ops), MedianMS: median(opMS), SelfMS: median(selfMS)}
	for name := range seen {
		absent = append(absent, name)
	}
	sort.Strings(absent)
	return vals, detail, spans, absent
}

// printReport writes the human-readable lines, then the summary as the
// last line.
func printReport(w io.Writer, rep *report, order []string) error {
	fmt.Fprintf(w, "# workload=%s seed=%d seconds=%d trace=%d\n", rep.Workload, rep.Seed, rep.Seconds, rep.Trace)
	m := rep.Machine
	fmt.Fprintf(w, "# machine: nproc=%d gomaxprocs=%d cpu=%q go=%s rev=%s modified=%s\n",
		m.NumCPU, m.GOMAXPROCS, m.CPU, m.GoVersion, m.Revision, m.Modified)
	for _, name := range order {
		v := rep.Metrics[name]
		line := fmt.Sprintf("%-32s %14.6g %s", name, v.Value, v.Unit)
		if s, ok := rep.RoundSpread[name]; ok {
			line += fmt.Sprintf("  (round spread %.1f%%)", 100*s)
		}
		fmt.Fprintln(w, line)
	}
	names := make([]string, 0, len(rep.Detail))
	for name := range rep.Detail {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "# %-30s %14.6g\n", name, rep.Detail[name])
	}
	if rep.Digest != "" {
		fmt.Fprintf(w, "# digest %s\n", rep.Digest)
	}
	for i, f := range rep.CheckFailures {
		if i == 10 {
			fmt.Fprintf(w, "# ... %d more check failures\n", len(rep.CheckFailures)-i)
			break
		}
		fmt.Fprintf(w, "# CHECK FAILED: %s\n", f)
	}
	line, err := json.Marshal(rep.summary)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
