// Command bench_compare diffs a fresh benchmark JSON (the output of
// tools/bench_json.sh / tools/bench_analysis_json.sh) against a
// checked-in baseline and fails on regression. It is the CI bench gate:
//
//	go run ./tools/bench_compare BENCH_sim.json .bench/BENCH_sim.json \
//	    BENCH_analysis.json .bench/BENCH_analysis.json
//
// Positional arguments are (baseline, fresh) file pairs. Exit status is
// nonzero when any regression is found unless -report-only is set.
//
// The repo's bench files carry a warning for a reason: absolute ns/op
// on a 1-CPU CI box swings by tens of percent run to run. The gate
// therefore leans on the interleaved ratio pairs — benchmarks that run
// in the same process and share whatever noise the machine has:
//
//	PooledEngine   / ReferenceEngine        (engine pooling speedup)
//	SimThroughput  / ReferenceEngine        (jump-ahead fallback overhead)
//	SimJumpAhead   / SimJumpAheadDisabled   (steady-state jump-ahead speedup)
//	SimJumpAheadWarm / SimJumpAheadDisabled (the same with a 1 s warm-up)
//	PairBounds     / PairBoundsReference    (trie fast-path speedup)
//	ChainIndexFleet / ChainIndex            (fleet-tier index build scaling)
//	WCRTFleet      / ChainIndexFleet        (fleet-tier WCRT stage)
//	ReadGraphFleet / ChainIndexFleet        (fleet-tier graph load)
//	PairBoundsFleet / PairBounds            (fleet-tier bound scaling)
//	PairBoundsFleet / PairBoundsFleetReference (fleet-tier descent speedup)
//	PairBoundsDense / PairBoundsDenseReference (c ≥ 2-heavy S-diff descent)
//	GreedyDense    / PairBoundsDense        (greedy S-diff-B over the verdict)
//
// A ratio regressing past -ratio-tolerance (default 20%) is a real
// slowdown regardless of machine noise. Absolute per-benchmark ns/op
// only trips at the loose -abs-tolerance (default 60%), and allocs/op —
// which is deterministic — at -alloc-tolerance (default 10%).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// entry is one benchmark's best-of-count result. AllocsOp is a pointer
// because older baseline sections were recorded without -benchmem.
type entry struct {
	NsOp     float64  `json:"ns_op"`
	AllocsOp *float64 `json:"allocs_op"`
}

type benchFile struct {
	Note    string           `json:"note"`
	Current map[string]entry `json:"current"`
}

// ratioPairs are the interleaved same-process benchmark pairs; the
// ratio cancels machine noise, so it gets the tight tolerance. A pair
// is checked only when all four operands exist in both files.
var ratioPairs = [][2]string{
	{"BenchmarkPooledEngine", "BenchmarkReferenceEngine"},
	{"BenchmarkSimThroughput", "BenchmarkReferenceEngine"},
	{"BenchmarkSimJumpAhead", "BenchmarkSimJumpAheadDisabled"},
	{"BenchmarkSimJumpAheadWarm", "BenchmarkSimJumpAheadDisabled"},
	{"BenchmarkPairBounds", "BenchmarkPairBoundsReference"},
	{"BenchmarkChainIndexFleet", "BenchmarkChainIndex"},
	{"BenchmarkWCRTFleet", "BenchmarkChainIndexFleet"},
	{"BenchmarkReadGraphFleet", "BenchmarkChainIndexFleet"},
	{"BenchmarkPairBoundsFleet", "BenchmarkPairBounds"},
	{"BenchmarkPairBoundsFleet", "BenchmarkPairBoundsFleetReference"},
	{"BenchmarkPairBoundsDense", "BenchmarkPairBoundsDenseReference"},
	{"BenchmarkGreedyDense", "BenchmarkPairBoundsDense"},
}

type tolerances struct {
	ratio float64 // relative slack on interleaved ratio pairs
	abs   float64 // relative slack on absolute ns/op
	alloc float64 // relative slack on allocs/op
}

// compare reports regressions and informational lines for one
// (baseline, fresh) file pair. A benchmark present in the baseline but
// missing from the fresh run is a regression: the gate must not pass
// because a pattern drifted and the benchmark silently stopped running.
func compare(label string, base, fresh map[string]entry, tol tolerances) (regressions, notes []string) {
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, p := range ratioPairs {
		bn, bd, okb := lookupPair(base, p)
		fn, fd, okf := lookupPair(fresh, p)
		if !okb || !okf {
			continue
		}
		br, fr := bn.NsOp/bd.NsOp, fn.NsOp/fd.NsOp
		line := fmt.Sprintf("%s: ratio %s/%s %.3f -> %.3f", label, p[0], p[1], br, fr)
		if fr > br*(1+tol.ratio) {
			regressions = append(regressions, line+fmt.Sprintf(" (> %+.0f%%)", 100*tol.ratio))
		} else {
			notes = append(notes, line)
		}
	}

	for _, name := range names {
		b := base[name]
		f, ok := fresh[name]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("%s: %s missing from the fresh run (benchmark pattern drift?)", label, name))
			continue
		}
		if f.NsOp > b.NsOp*(1+tol.abs) {
			regressions = append(regressions, fmt.Sprintf("%s: %s ns/op %.0f -> %.0f (> %+.0f%%)",
				label, name, b.NsOp, f.NsOp, 100*tol.abs))
		}
		if b.AllocsOp != nil && f.AllocsOp != nil && *f.AllocsOp > *b.AllocsOp*(1+tol.alloc) {
			regressions = append(regressions, fmt.Sprintf("%s: %s allocs/op %.0f -> %.0f (> %+.0f%%)",
				label, name, *b.AllocsOp, *f.AllocsOp, 100*tol.alloc))
		}
	}
	return regressions, notes
}

func lookupPair(m map[string]entry, p [2]string) (num, den entry, ok bool) {
	num, okn := m[p[0]]
	den, okd := m[p[1]]
	if !okn || !okd || den.NsOp <= 0 {
		return entry{}, entry{}, false
	}
	return num, den, true
}

func readBench(path string) (map[string]entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Current) == 0 {
		return nil, fmt.Errorf("%s: no \"current\" benchmark section", path)
	}
	return f.Current, nil
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench_compare", flag.ContinueOnError)
	fs.SetOutput(stdout)
	reportOnly := fs.Bool("report-only", false, "print the comparison but always exit 0")
	ratioTol := fs.Float64("ratio-tolerance", 0.20, "relative slack on interleaved ratio pairs")
	absTol := fs.Float64("abs-tolerance", 0.60, "relative slack on absolute ns/op (noisy on shared boxes)")
	allocTol := fs.Float64("alloc-tolerance", 0.10, "relative slack on allocs/op")
	fs.Usage = func() {
		fmt.Fprintln(stdout, "usage: bench_compare [flags] baseline.json fresh.json [baseline2.json fresh2.json ...]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	files := fs.Args()
	if len(files) == 0 || len(files)%2 != 0 {
		fs.Usage()
		return fmt.Errorf("need an even number of file arguments (baseline, fresh pairs)")
	}
	tol := tolerances{ratio: *ratioTol, abs: *absTol, alloc: *allocTol}

	var all []string
	for i := 0; i < len(files); i += 2 {
		base, err := readBench(files[i])
		if err != nil {
			return err
		}
		fresh, err := readBench(files[i+1])
		if err != nil {
			return err
		}
		regressions, notes := compare(fmt.Sprintf("%s vs %s", files[i], files[i+1]), base, fresh, tol)
		for _, n := range notes {
			fmt.Fprintln(stdout, "ok:", n)
		}
		for _, r := range regressions {
			fmt.Fprintln(stdout, "REGRESSION:", r)
		}
		all = append(all, regressions...)
	}
	if len(all) == 0 {
		fmt.Fprintln(stdout, "bench gate: no regressions")
		return nil
	}
	if *reportOnly {
		fmt.Fprintf(stdout, "bench gate: %d regression(s), report-only mode — not failing\n", len(all))
		return nil
	}
	return fmt.Errorf("bench gate: %d regression(s)", len(all))
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench_compare:", err)
		os.Exit(1)
	}
}
