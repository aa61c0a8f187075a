package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/expected_seed1.json from this build")

// smokeConfig runs a couple of ops per stage on the held-out seed, so
// the smoke tests do not depend on the pinned digests.
func smokeConfig() runConfig {
	return runConfig{seed: 2, rounds: 1, warmup: 2, setups: 1, opsPerRound: 2, traceOps: 2}
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return &b
}

// TestBenchmarkJSON validates BENCHMARK.json and checks that it declares
// exactly the workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	checkMetric := func(name, unit, better string) {
		checkName(name)
		if !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q does not match %s", name, unit, unitRE)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better = %q, want lower or higher", name, better)
		}
	}

	if !reflect.DeepEqual(b.Paths, []string{"bench"}) || !reflect.DeepEqual(b.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("command %q, paths %q", b.Command, b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", b.RunSeconds)
	}

	workloadNames := map[string]bool{}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		checkName(w.Name)
		workloadNames[w.Name] = true
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q (%q), implemented %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}

	e2e := map[string]bool{}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d reported", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		checkMetric(m.Name, m.Unit, m.Better)
		e2e[m.Name] = true
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		want := endToEnd[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better || m.Bound != want.bound {
			t.Errorf("end_to_end[%d] = %+v, program reports %+v", i, m, want)
		}
	}
	if !e2e["setup_s"] {
		t.Error("no setup_s metric")
	}

	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics declared, %d reported", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range b.PerLayer {
		checkMetric(m.Name, m.Unit, m.Better)
		want := layerMetrics[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per_layer[%d] = %+v, program reports %s %s %s", i, m, want.name, want.unit, want.better)
		}
		if len(want.moves) == 0 {
			t.Errorf("%s names no end-to-end metric it should move", m.Name)
		}
		for _, mv := range want.moves {
			metric, wl, ok := strings.Cut(mv, "@")
			if !ok || !e2e[metric] || !workloadNames[wl] {
				t.Errorf("%s: moves %q names no declared metric@workload", m.Name, mv)
			}
		}
	}
}

// TestWorkloadsSmoke runs every workload for a few ops with all checks,
// untraced and traced, and checks the outputs carry every declared
// metric, with non-zero end-to-end values.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep := &report{Workload: w.name, Machine: describeMachine()}
			if _, err := endToEndRun(w, smokeConfig(), rep); err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 || len(rep.CheckFailures) != 0 {
				t.Fatalf("failed %d, checks %q", rep.Failed, rep.CheckFailures)
			}
			for _, m := range endToEnd {
				if v, ok := rep.Metrics[m.name]; !ok || v.Value <= 0 || v.Unit != m.unit {
					t.Errorf("%s = %+v (present %v), want a positive value in %s", m.name, v, ok, m.unit)
				}
			}
			var out bytes.Buffer
			if err := printReport(&out, rep, nil); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("last line: %v", err)
			}
			if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
				t.Errorf("last line keys: %s", lines[len(lines)-1])
			}

			trep := &report{Workload: w.name, Machine: describeMachine()}
			if _, err := tracedRun(w, smokeConfig(), trep, ""); err != nil {
				t.Fatal(err)
			}
			if trep.Failed != 0 || len(trep.CheckFailures) != 0 {
				t.Fatalf("traced: failed %d, checks %q", trep.Failed, trep.CheckFailures)
			}
			for _, m := range layerMetrics {
				if v, ok := trep.Metrics[m.name]; !ok || v.Unit != m.unit {
					t.Errorf("traced %s = %+v (present %v), want unit %s", m.name, v, ok, m.unit)
				}
			}
			if len(trep.Absent) != 0 {
				t.Errorf("counters absent from the registry: %q", trep.Absent)
			}
		})
	}
}

// TestSeed1Digests pins every workload's warm-up results on the
// development seed. Run with -update after a change that is meant to
// change results.
func TestSeed1Digests(t *testing.T) {
	got := map[string]string{}
	for _, w := range workloads {
		cfg := defaultConfig(devSeed, 1)
		st := &runStats{}
		d, _, err := setUp(w, cfg, st, true)
		if err != nil {
			t.Fatal(err)
		}
		if st.failed != 0 || len(st.checkFailures) != 0 {
			t.Fatalf("%s: failed %d, checks %q", w.name, st.failed, st.checkFailures)
		}
		got[w.name] = d
	}
	if *update {
		if err := writeJSON("testdata/expected_seed1.json", got); err != nil {
			t.Fatal(err)
		}
		return
	}
	var want map[string]string
	if err := json.Unmarshal(expectedSeed1, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("seed-1 digests changed:\n got %v\nwant %v\n(go test . -update rewrites them)", got, want)
	}
}

// TestCLIRejectsBadArguments checks the usage errors exit with status 2
// and print no result.
func TestCLIRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "fleet-verify", "-trace", "2"},
		{"-workload", "fleet-verify", "-seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q, want 2 and none", args, code, out.String())
		}
	}
}
