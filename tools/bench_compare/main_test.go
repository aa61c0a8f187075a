package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBench(t *testing.T, dir, name, body string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// simFixture mirrors the shape of BENCH_sim.json's "current" section
// with round numbers: the pooled engine 10x over reference, jump-ahead
// 100x over disabled.
const simFixture = `{
  "current": {
    "BenchmarkPooledEngine": {"ns_op": 1000000, "allocs_op": 450},
    "BenchmarkReferenceEngine": {"ns_op": 10000000, "allocs_op": 4000},
    "BenchmarkSimThroughput": {"ns_op": 4000000, "allocs_op": 450},
    "BenchmarkSimJumpAhead": {"ns_op": 100000, "allocs_op": 470},
    "BenchmarkSimJumpAheadDisabled": {"ns_op": 10000000, "allocs_op": 450}
  }
}`

// TestSelfCompareBaselinesPass runs the gate on the repo's checked-in
// bench files against themselves: identical ratios, identical absolutes
// — the gate must pass, proving the checked-in baselines are healthy
// inputs.
func TestSelfCompareBaselinesPass(t *testing.T) {
	for _, f := range []string{"BENCH_sim.json", "BENCH_analysis.json"} {
		path := filepath.Join("..", "..", f)
		var out bytes.Buffer
		if err := run([]string{path, path}, &out); err != nil {
			t.Errorf("self-compare of %s failed: %v\n%s", f, err, out.String())
		}
		if !strings.Contains(out.String(), "no regressions") {
			t.Errorf("self-compare of %s: missing pass line:\n%s", f, out.String())
		}
	}
}

// TestSyntheticRegressionFails doubles the pooled engine's ns/op (a 2x
// slowdown of the fast side of an interleaved pair) and expects a
// nonzero gate.
func TestSyntheticRegressionFails(t *testing.T) {
	dir := t.TempDir()
	base := writeBench(t, dir, "base.json", simFixture)
	fresh := writeBench(t, dir, "fresh.json", strings.Replace(simFixture,
		`"BenchmarkPooledEngine": {"ns_op": 1000000`,
		`"BenchmarkPooledEngine": {"ns_op": 2000000`, 1))

	var out bytes.Buffer
	err := run([]string{base, fresh}, &out)
	if err == nil {
		t.Fatalf("2x ratio regression passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION:") ||
		!strings.Contains(out.String(), "BenchmarkPooledEngine/BenchmarkReferenceEngine") {
		t.Errorf("regression report missing the offending ratio:\n%s", out.String())
	}

	// Same inputs in report-only mode: printed but passing.
	out.Reset()
	if err := run([]string{"-report-only", base, fresh}, &out); err != nil {
		t.Errorf("report-only mode failed the gate: %v", err)
	}
	if !strings.Contains(out.String(), "report-only") {
		t.Errorf("report-only summary line missing:\n%s", out.String())
	}
}

// TestWCRTStageRatioGated doubles the fleet WCRT stage against the trie
// build of the same graph; the stage's own ratio pair must catch it.
func TestWCRTStageRatioGated(t *testing.T) {
	const fixture = `{"current": {
	  "BenchmarkChainIndexFleet": {"ns_op": 200000, "allocs_op": 30},
	  "BenchmarkWCRTFleet": {"ns_op": 1000000, "allocs_op": 80}
	}}`
	dir := t.TempDir()
	base := writeBench(t, dir, "base.json", fixture)
	fresh := writeBench(t, dir, "fresh.json", strings.Replace(fixture,
		`"BenchmarkWCRTFleet": {"ns_op": 1000000`, `"BenchmarkWCRTFleet": {"ns_op": 1500000`, 1))
	var out bytes.Buffer
	if err := run([]string{base, fresh}, &out); err == nil {
		t.Fatalf("1.5x WCRT stage regression passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "BenchmarkWCRTFleet/BenchmarkChainIndexFleet") {
		t.Errorf("regression report missing the WCRT ratio:\n%s", out.String())
	}
}

// TestReadGraphRatioGated slows the fleet graph load 1.5x against the
// trie build of the same graph; the load's own ratio pair must catch it.
func TestReadGraphRatioGated(t *testing.T) {
	const fixture = `{"current": {
	  "BenchmarkChainIndexFleet": {"ns_op": 300000, "allocs_op": 30},
	  "BenchmarkReadGraphFleet": {"ns_op": 4000000, "allocs_op": 5600}
	}}`
	dir := t.TempDir()
	base := writeBench(t, dir, "base.json", fixture)
	fresh := writeBench(t, dir, "fresh.json", strings.Replace(fixture,
		`"BenchmarkReadGraphFleet": {"ns_op": 4000000`, `"BenchmarkReadGraphFleet": {"ns_op": 6000000`, 1))
	var out bytes.Buffer
	if err := run([]string{"-abs-tolerance", "10", base, fresh}, &out); err == nil {
		t.Fatalf("1.5x fleet graph load regression passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "BenchmarkReadGraphFleet/BenchmarkChainIndexFleet") {
		t.Errorf("regression report missing the graph load ratio:\n%s", out.String())
	}
}

// TestFleetDescentRatioGated slows the fleet descent 1.5x against the
// reference pipeline on the same graph, about what losing the subtree
// skips costs; the pair between them must catch it.
func TestFleetDescentRatioGated(t *testing.T) {
	const fixture = `{"current": {
	  "BenchmarkPairBoundsFleet": {"ns_op": 2400000, "allocs_op": 3600},
	  "BenchmarkPairBoundsFleetReference": {"ns_op": 100000000, "allocs_op": 169000}
	}}`
	dir := t.TempDir()
	base := writeBench(t, dir, "base.json", fixture)
	fresh := writeBench(t, dir, "fresh.json", strings.Replace(fixture,
		`"BenchmarkPairBoundsFleet": {"ns_op": 2400000`, `"BenchmarkPairBoundsFleet": {"ns_op": 3600000`, 1))
	var out bytes.Buffer
	if err := run([]string{"-abs-tolerance", "10", base, fresh}, &out); err == nil {
		t.Fatalf("1.5x fleet descent regression passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "BenchmarkPairBoundsFleet/BenchmarkPairBoundsFleetReference") {
		t.Errorf("regression report missing the fleet descent ratio:\n%s", out.String())
	}
}

// TestDenseDescentRatioGated slows the dense S-diff descent 1.5x
// against the reference pipeline on the same graph, a small part of
// what evaluating every c ≥ 2 pair costs; the pair between them must
// catch it.
func TestDenseDescentRatioGated(t *testing.T) {
	const fixture = `{"current": {
	  "BenchmarkPairBoundsDense": {"ns_op": 2000000, "allocs_op": 170},
	  "BenchmarkPairBoundsDenseReference": {"ns_op": 190000000, "allocs_op": 532000}
	}}`
	dir := t.TempDir()
	base := writeBench(t, dir, "base.json", fixture)
	fresh := writeBench(t, dir, "fresh.json", strings.Replace(fixture,
		`"BenchmarkPairBoundsDense": {"ns_op": 2000000`, `"BenchmarkPairBoundsDense": {"ns_op": 3000000`, 1))
	var out bytes.Buffer
	if err := run([]string{"-abs-tolerance", "10", base, fresh}, &out); err == nil {
		t.Fatalf("1.5x dense descent regression passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "BenchmarkPairBoundsDense/BenchmarkPairBoundsDenseReference") {
		t.Errorf("regression report missing the dense descent ratio:\n%s", out.String())
	}
}

// TestGreedyRatioGated doubles the dense greedy's ns/op while the dense
// verdict it runs after stays put; the pair between them must catch it.
func TestGreedyRatioGated(t *testing.T) {
	const fixture = `{"current": {
	  "BenchmarkGreedyDense": {"ns_op": 2400000, "allocs_op": 320},
	  "BenchmarkPairBoundsDense": {"ns_op": 900000, "allocs_op": 170}
	}}`
	dir := t.TempDir()
	base := writeBench(t, dir, "base.json", fixture)
	fresh := writeBench(t, dir, "fresh.json", strings.Replace(fixture,
		`"BenchmarkGreedyDense": {"ns_op": 2400000`, `"BenchmarkGreedyDense": {"ns_op": 4800000`, 1))
	var out bytes.Buffer
	if err := run([]string{"-abs-tolerance", "10", base, fresh}, &out); err == nil {
		t.Fatalf("2x greedy regression passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "BenchmarkGreedyDense/BenchmarkPairBoundsDense") {
		t.Errorf("regression report missing the greedy ratio:\n%s", out.String())
	}
}

// TestWarmJumpAheadRatioGated triples the warm-up run's ns/op, about
// what simulating its warm-up in full costs. Its own ratio pair against
// the disabled run must catch that while the warm-up-free pair, which
// is unchanged, stays clean.
func TestWarmJumpAheadRatioGated(t *testing.T) {
	const fixture = `{"current": {
	  "BenchmarkSimJumpAhead": {"ns_op": 100000, "allocs_op": 466},
	  "BenchmarkSimJumpAheadWarm": {"ns_op": 100000, "allocs_op": 467},
	  "BenchmarkSimJumpAheadDisabled": {"ns_op": 20000000, "allocs_op": 443}
	}}`
	dir := t.TempDir()
	base := writeBench(t, dir, "base.json", fixture)
	fresh := writeBench(t, dir, "fresh.json", strings.Replace(fixture,
		`"BenchmarkSimJumpAheadWarm": {"ns_op": 100000`, `"BenchmarkSimJumpAheadWarm": {"ns_op": 300000`, 1))
	var out bytes.Buffer
	if err := run([]string{"-abs-tolerance", "10", base, fresh}, &out); err == nil {
		t.Fatalf("3x warm-up jump-ahead regression passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "BenchmarkSimJumpAheadWarm/BenchmarkSimJumpAheadDisabled") {
		t.Errorf("regression report missing the warm-up jump-ahead ratio:\n%s", out.String())
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "REGRESSION:") && strings.Contains(line, "ratio BenchmarkSimJumpAhead/") {
			t.Errorf("the unchanged warm-up-free pair was flagged: %s", line)
		}
	}
}

// TestRatioToleratesSharedNoise scales EVERY ns/op by 1.5x — the
// machine got uniformly slower. The interleaved ratios are unchanged
// and the absolute drift is under the loose 60% guard, so the gate
// must pass.
func TestRatioToleratesSharedNoise(t *testing.T) {
	dir := t.TempDir()
	base := writeBench(t, dir, "base.json", simFixture)
	noisy := simFixture
	for _, r := range [][2]string{
		{`"ns_op": 1000000,`, `"ns_op": 1500000,`},
		{`"ns_op": 10000000,`, `"ns_op": 15000000,`},
		{`"ns_op": 4000000,`, `"ns_op": 6000000,`},
		{`"ns_op": 100000,`, `"ns_op": 150000,`},
	} {
		noisy = strings.ReplaceAll(noisy, r[0], r[1])
	}
	fresh := writeBench(t, dir, "fresh.json", noisy)
	var out bytes.Buffer
	if err := run([]string{base, fresh}, &out); err != nil {
		t.Errorf("uniform 1.5x noise tripped the gate: %v\n%s", err, out.String())
	}
}

// TestAllocRegressionFails bumps allocs/op past the 10% slack; allocs
// are deterministic, so this must fail even though ns/op is unchanged.
func TestAllocRegressionFails(t *testing.T) {
	dir := t.TempDir()
	base := writeBench(t, dir, "base.json", simFixture)
	fresh := writeBench(t, dir, "fresh.json", strings.Replace(simFixture,
		`"allocs_op": 470`, `"allocs_op": 940`, 1))
	var out bytes.Buffer
	if err := run([]string{base, fresh}, &out); err == nil {
		t.Errorf("2x allocs/op regression passed the gate:\n%s", out.String())
	}
}

// TestMissingBenchmarkFails drops a baseline benchmark from the fresh
// run: pattern drift must not silently pass.
func TestMissingBenchmarkFails(t *testing.T) {
	dir := t.TempDir()
	base := writeBench(t, dir, "base.json", simFixture)
	fresh := writeBench(t, dir, "fresh.json", strings.Replace(simFixture,
		"BenchmarkSimThroughput", "BenchmarkRenamed", 1))
	var out bytes.Buffer
	if err := run([]string{base, fresh}, &out); err == nil {
		t.Errorf("missing benchmark passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "missing from the fresh run") {
		t.Errorf("missing-benchmark diagnostic absent:\n%s", out.String())
	}
}

// TestBadInputs covers the argument and file validation paths.
func TestBadInputs(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"only-one.json"}, &out); err == nil {
		t.Error("odd file count accepted")
	}
	if err := run([]string{"nope.json", "nope.json"}, &out); err == nil {
		t.Error("unreadable file accepted")
	}
	dir := t.TempDir()
	empty := writeBench(t, dir, "empty.json", `{"current": {}}`)
	if err := run([]string{empty, empty}, &out); err == nil {
		t.Error("empty current section accepted")
	}
}
