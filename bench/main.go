// Command bench is the repository benchmark: four workloads that time
// the disparity verdict, the greedy buffer optimizer and the simulator
// through the public facade, and a traced run that splits each op along
// the pipeline's layers. See README.md.
//
//	go run . -workload fleet-verify -seed 1 -seconds 10 [-out report.json]
//	go run . -workload fusion-dense -trace 1 [-chrome trace.json]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is non-zero
// when an op failed or an output check did not hold.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/trace/span"
)

//go:embed testdata/expected_seed1.json
var expectedSeed1 []byte

// devSeed is the development seed whose warm-up digests are pinned.
const devSeed = 1

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	name := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", devSeed, "input seed; 1 has pinned result digests, 2 is held out")
	seconds := fs.Int("seconds", 10, "wall-clock seconds of measurement")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	out := fs.String("out", "", "write the full JSON report to this file")
	chrome := fs.String("chrome", "", "with -trace 1, write the Chrome trace to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: need -workload (%s), -seconds ≥ 1 and -trace 0 or 1\n", strings.Join(names, ", "))
		return 2
	}
	cfg := defaultConfig(*seed, *seconds)
	rep := &report{Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace, Machine: describeMachine()}
	var err error
	var order []string
	if *trace == 1 {
		order, err = tracedRun(w, cfg, rep, *chrome)
	} else {
		order, err = endToEndRun(w, cfg, rep)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	rep.Correct = len(rep.CheckFailures) == 0
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if err := printReport(stdout, rep, order); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if rep.Failed > 0 || !rep.Correct {
		return 1
	}
	return 0
}

// endToEndRun measures the workload and fills the report's end-to-end
// metrics.
func endToEndRun(w *workload, cfg runConfig, rep *report) ([]string, error) {
	st, err := measureWorkload(w, cfg)
	if err != nil {
		return nil, err
	}
	vals, spreads, detail := endToEndValues(st)
	rep.Metrics = map[string]value{}
	order := make([]string, 0, len(endToEnd))
	for _, m := range endToEnd {
		rep.Metrics[m.name] = value{vals[m.name], m.unit}
		order = append(order, m.name)
	}
	rep.RoundSpread, rep.Detail = spreads, detail
	rep.Attempted, rep.Failed = st.attempted, st.failed
	rep.Digest = st.digest
	rep.CheckFailures = append(st.checkFailures, digestCheck(w, cfg.seed, st.digest)...)
	rep.Detail["check_failures"] = float64(len(rep.CheckFailures))
	return order, nil
}

// tracedRun warms up once, then walks inputs through every layer until
// the time or op budget is spent, and fills the per-layer metrics.
func tracedRun(w *workload, cfg runConfig, rep *report, chromePath string) ([]string, error) {
	st := &runStats{}
	digest, _, err := setUp(w, cfg, st, true)
	if err != nil {
		return nil, err
	}
	tr := span.New()
	tk := tr.Track(w.name)
	var ops []*opTrace
	var refs []time.Duration
	gc0, cpu0 := gcCPU()
	deadline := time.Now().Add(cfg.measure)
	for i := cfg.warmup; len(ops) < cfg.traceOps; i++ {
		if cfg.opsPerRound > 0 && i-cfg.warmup >= cfg.opsPerRound {
			break
		}
		if cfg.opsPerRound <= 0 && len(ops) > 0 && time.Now().After(deadline) {
			break
		}
		in, err := w.gen(cfg.seed, i)
		if err != nil {
			return nil, err
		}
		ref := reference()
		runtime.GC()
		ot, r, err := walk(w, in, tk)
		st.attempted++
		if err != nil {
			st.fail(in, err)
			continue
		}
		st.review(w, in, r)
		ops = append(ops, ot)
		refs = append(refs, ref)
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("every traced op failed: %v", st.checkFailures)
	}
	gc1, cpu1 := gcCPU()
	normalizeLayers(ops, speeds(refs))
	vals, detail, spans, absent := layerValues(ops, ratio(gc1-gc0, cpu1-cpu0))
	rep.Metrics = map[string]value{}
	order := make([]string, 0, len(layerMetrics))
	for _, m := range layerMetrics {
		rep.Metrics[m.name] = value{vals[m.name], m.unit}
		order = append(order, m.name)
	}
	rep.Detail, rep.Spans, rep.Absent = detail, spans, absent
	rep.Attempted, rep.Failed = st.attempted, st.failed
	rep.Digest = digest
	rep.CheckFailures = append(st.checkFailures, digestCheck(w, cfg.seed, digest)...)
	rep.Detail["fail_ratio"] = ratio(float64(st.failed), float64(st.attempted))
	rep.Detail["check_failures"] = float64(len(rep.CheckFailures))
	rep.Detail["sdiff_above_pdiff"] = float64(st.sdiffAbove)
	if chromePath != "" {
		if err := tr.WriteChromeFile(chromePath); err != nil {
			return nil, fmt.Errorf("writing Chrome trace: %w", err)
		}
	}
	return order, nil
}

// digestCheck compares the warm-up digest with the pinned one on the
// development seed; other seeds rely on the invariant checks alone.
func digestCheck(w *workload, seed int64, digest string) []string {
	if seed != devSeed {
		return nil
	}
	var want map[string]string
	if err := json.Unmarshal(expectedSeed1, &want); err != nil {
		return []string{fmt.Sprintf("reading pinned digests: %v", err)}
	}
	if want[w.name] != digest {
		return []string{fmt.Sprintf("seed-1 digest %s, pinned %q (testdata/expected_seed1.json)", digest, want[w.name])}
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
