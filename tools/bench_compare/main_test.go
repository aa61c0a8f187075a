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
