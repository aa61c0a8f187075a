package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

func testRegistry() *metrics.Registry {
	reg := metrics.NewRegistry()
	reg.Counter("exp.graphs.used").Add(12)
	reg.Timer("old.timer").Observe(250 * time.Millisecond)
	h := reg.Histogram("exp.stage.analysis")
	h.Observe(time.Millisecond)
	h.Observe(2 * time.Millisecond)
	h.Observe(time.Second)
	return reg
}

func TestPrometheusExposition(t *testing.T) {
	var sb strings.Builder
	if err := WritePrometheus(&sb, testRegistry()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE disparity_exp_graphs_used_total counter\n",
		"disparity_exp_graphs_used_total 12\n",
		"# TYPE disparity_old_timer_seconds summary\n",
		"disparity_old_timer_seconds_sum 0.25\n",
		"disparity_old_timer_seconds_count 1\n",
		"# TYPE disparity_exp_stage_analysis_seconds histogram\n",
		`disparity_exp_stage_analysis_seconds_bucket{le="+Inf"} 3`,
		"disparity_exp_stage_analysis_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Cumulative bucket counts must be monotone and end at count.
	var last int64 = -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "disparity_exp_stage_analysis_seconds_bucket") {
			continue
		}
		var v int64
		if _, err := fmt_sscan(line, &v); err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if v < last {
			t.Errorf("non-monotone cumulative bucket: %q after %d", line, last)
		}
		last = v
	}
	if last != 3 {
		t.Errorf("final cumulative bucket = %d, want 3", last)
	}
}

func TestDerivedGauges(t *testing.T) {
	reg := metrics.NewRegistry()

	// No activity → no gauges at all.
	var empty strings.Builder
	if err := WriteDerivedGauges(&empty, reg); err != nil {
		t.Fatal(err)
	}
	if empty.Len() != 0 {
		t.Errorf("gauges emitted with no activity:\n%s", empty.String())
	}

	reg.Counter("core.pairs.bounded").Add(6)
	reg.Counter("core.pairs.pruned").Add(2)
	reg.Counter("core.pairs.subtree_pruned").Add(24)
	reg.Counter("exp.sim.jump.engaged").Add(9)
	reg.Counter("exp.sim.jump.fallback.random-exec").Add(1)
	reg.Counter("chains.truncated").Add(4)

	var sb strings.Builder
	if err := WriteDerivedGauges(&sb, reg); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"disparity_pair_prune_ratio 0.25\n",
		"disparity_subtree_prune_ratio 0.75\n",
		"disparity_jump_engagement_rate 0.9\n",
		"disparity_truncations 4\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("derived gauges missing %q:\n%s", want, out)
		}
	}
}

// fmt_sscan pulls the trailing integer off an exposition line.
func fmt_sscan(line string, v *int64) (int, error) {
	i := strings.LastIndexByte(line, ' ')
	n, err := json.Number(line[i+1:]).Int64()
	*v = n
	return 1, err
}

func TestServerEndpoints(t *testing.T) {
	tr := NewTracker()
	tr.Begin(40)
	tr.Point("n=15")
	for i := 0; i < 10; i++ {
		tr.WorkloadDone()
	}
	tr.Jobs = func() int64 { return 123456 }
	s := &Server{Registry: testRegistry(), Tracker: tr}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		if _, err := io_copy(&sb, resp); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, sb.String()
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "disparity_exp_graphs_used_total 12") {
		t.Errorf("/metrics: code %d body %q", code, body)
	}
	code, body := get("/progress")
	if code != 200 {
		t.Fatalf("/progress: code %d", code)
	}
	var p Progress
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatalf("/progress not JSON: %v\n%s", err, body)
	}
	if !p.Running || p.WorkloadsDone != 10 || p.WorkloadsTotal != 40 || p.Point != "n=15" {
		t.Errorf("progress = %+v", p)
	}
	if p.JobsSimulated != 123456 {
		t.Errorf("jobs = %d", p.JobsSimulated)
	}
	if p.ETASec <= 0 {
		t.Errorf("eta = %v, want > 0 with 10/40 done", p.ETASec)
	}
	if p.Fraction != 0.25 {
		t.Errorf("fraction = %v", p.Fraction)
	}
	if code, _ := get("/debug/vars"); code != 200 {
		t.Errorf("/debug/vars: code %d", code)
	}
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Errorf("/debug/pprof/: code %d", code)
	}
	if code, _ := get("/nope"); code != 404 {
		t.Errorf("/nope: code %d, want 404", code)
	}
}

func io_copy(sb *strings.Builder, resp *http.Response) (int64, error) {
	buf := make([]byte, 32<<10)
	var n int64
	for {
		m, err := resp.Body.Read(buf)
		sb.Write(buf[:m])
		n += int64(m)
		if err != nil {
			if err.Error() == "EOF" {
				return n, nil
			}
			return n, nil
		}
	}
}

func TestServerStartClose(t *testing.T) {
	s := &Server{Registry: testRegistry()}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("code %d", resp.StatusCode)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("server still serving after Close")
	}
}

func TestNilTracker(t *testing.T) {
	var tr *Tracker
	tr.Begin(10)
	tr.Point("x")
	tr.WorkloadDone()
	if p := tr.Progress(); p.Running || p.WorkloadsDone != 0 {
		t.Errorf("nil tracker progress = %+v", p)
	}
}

func TestManifest(t *testing.T) {
	reg := testRegistry()
	m := NewManifest("disparity-exp", []string{"-fig", "6a"})
	m.Seed = 7
	m.Config = map[string]any{"points": []int{5, 10}}
	m.Finish(reg)
	if m.DurationSec < 0 || m.End.Before(m.Start) {
		t.Errorf("bad time window: %+v", m)
	}
	if m.GoVersion == "" || m.GOMAXPROCS < 1 {
		t.Errorf("missing environment: %+v", m)
	}
	if m.Counters["exp.graphs.used"] != 12 {
		t.Errorf("counters = %v", m.Counters)
	}
	var hist *Stage
	for i := range m.Stages {
		if m.Stages[i].Name == "exp.stage.analysis" {
			hist = &m.Stages[i]
		}
	}
	if hist == nil {
		t.Fatalf("no histogram stage in %+v", m.Stages)
	}
	if hist.Count != 3 || hist.P50Sec <= 0 || hist.P99Sec < hist.P50Sec {
		t.Errorf("stage = %+v", *hist)
	}
	// Stages sorted by name.
	for i := 1; i < len(m.Stages); i++ {
		if m.Stages[i].Name < m.Stages[i-1].Name {
			t.Errorf("stages unsorted: %q before %q", m.Stages[i-1].Name, m.Stages[i].Name)
		}
	}

	path := filepath.Join(t.TempDir(), "run.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("manifest not JSON: %v", err)
	}
	if back.Command != "disparity-exp" || back.Seed != 7 {
		t.Errorf("round-trip = %+v", back)
	}
}
