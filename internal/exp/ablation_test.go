package exp

import (
	"testing"
)

// runCounted runs one sweep and checks the graph counters it moved:
// a sweep counts every graph it averages, and never more than it drew.
func runCounted(t *testing.T, run func() (*Table, error)) *Table {
	t.Helper()
	used0, gen0 := graphsUsed.Load(), graphsGenerated.Load()
	tbl, err := run()
	if err != nil {
		t.Fatal(err)
	}
	used, gen := graphsUsed.Load()-used0, graphsGenerated.Load()-gen0
	if used <= 0 || used > gen {
		t.Errorf("exp.graphs.used rose by %d and exp.graphs.generated by %d, want 0 < used ≤ generated", used, gen)
	}
	return tbl
}

func TestAblationBackward(t *testing.T) {
	cfg := tiny()
	cfg.Points = []int{8, 12}
	tbl := runCounted(t, func() (*Table, error) { return AblationBackward(cfg) })
	np, _ := tbl.Column("S-diff(NP)")
	du, _ := tbl.Column("S-diff(Duerr)")
	for i := range np {
		// The NP-aware bounds are never looser than the baseline.
		if np[i] > du[i]+1e-9 {
			t.Errorf("row %d: NP %.3f above Duerr %.3f", i, np[i], du[i])
		}
		if np[i] <= 0 {
			t.Errorf("row %d: non-positive bound", i)
		}
	}
}

func TestAblationTail(t *testing.T) {
	cfg := tiny()
	cfg.Points = []int{0, 4}
	cfg.GraphsPerPoint = 4
	tbl := runCounted(t, func() (*Table, error) { return AblationTail(cfg, 14) })
	pd, _ := tbl.Column("P-diff")
	sd, _ := tbl.Column("S-diff")
	// tail=0: bounds coincide; tail=4: S-diff strictly tighter.
	if d := pd[0] - sd[0]; d < 0 || d > 0.001*pd[0] {
		t.Errorf("tail=0: P %.3f vs S %.3f should coincide", pd[0], sd[0])
	}
	if sd[1] >= pd[1] {
		t.Errorf("tail=4: S %.3f not below P %.3f", sd[1], pd[1])
	}
	// Guard: impossible tail lengths rejected.
	cfg.Points = []int{12}
	if _, err := AblationTail(cfg, 14); err == nil {
		t.Error("oversized tail accepted")
	}
}

func TestAblationExec(t *testing.T) {
	cfg := tiny()
	cfg.Points = []int{8}
	tbl := runCounted(t, func() (*Table, error) { return AblationExec(cfg) })
	sd, _ := tbl.Column("S-diff")
	for _, col := range []string{"Sim-wcet", "Sim-bcet", "Sim-uniform", "Sim-extremes"} {
		v, err := tbl.Column(col)
		if err != nil {
			t.Fatal(err)
		}
		if v[0] > sd[0]+1e-9 {
			t.Errorf("%s %.3f exceeds the S-diff bound %.3f", col, v[0], sd[0])
		}
		if v[0] < 0 {
			t.Errorf("%s negative", col)
		}
	}
}

func TestAblationSemantics(t *testing.T) {
	cfg := tiny()
	cfg.Points = []int{8}
	tbl := runCounted(t, func() (*Table, error) { return AblationSemantics(cfg) })
	sdI, _ := tbl.Column("S-diff(impl)")
	simI, _ := tbl.Column("Sim(impl)")
	sdL, _ := tbl.Column("S-diff(LET)")
	simL, _ := tbl.Column("Sim(LET)")
	if simI[0] > sdI[0]+1e-9 {
		t.Errorf("implicit Sim %.3f above bound %.3f", simI[0], sdI[0])
	}
	if simL[0] > sdL[0]+1e-9 {
		t.Errorf("LET Sim %.3f above bound %.3f", simL[0], sdL[0])
	}
	if sdL[0] <= 0 || sdI[0] <= 0 {
		t.Error("non-positive bounds")
	}
}

func TestAblationAdversarial(t *testing.T) {
	cfg := tiny()
	cfg.Points = []int{3}
	cfg.GraphsPerPoint = 2
	tbl := runCounted(t, func() (*Table, error) { return AblationAdversarial(cfg) })
	rnd, _ := tbl.Column("Sim(random)")
	adv, _ := tbl.Column("Sim(adv)")
	sd, _ := tbl.Column("S-diff")
	// The adversarial search reports its own evaluated maximum, which is
	// achievable; it must stay below the bound and should not be worse
	// than what its own starting point achieved.
	if adv[0] > sd[0]+1e-9 {
		t.Errorf("adversarial Sim %.3f above bound %.3f", adv[0], sd[0])
	}
	if rnd[0] > sd[0]+1e-9 {
		t.Errorf("random Sim %.3f above bound %.3f", rnd[0], sd[0])
	}
}

func TestAblationUtilization(t *testing.T) {
	cfg := tiny()
	cfg.Points = []int{5, 40}
	cfg.GraphsPerPoint = 3
	tbl := runCounted(t, func() (*Table, error) { return AblationUtilization(cfg) })
	np, _ := tbl.Column("S-diff(NP)")
	du, _ := tbl.Column("S-diff(Duerr)")
	for i := range np {
		if np[i] > du[i]+1e-9 {
			t.Errorf("row %d: NP %.3f looser than baseline %.3f", i, np[i], du[i])
		}
	}
	// At 40% utilization the refinement must be clearly visible.
	if du[1]-np[1] < 0.001*np[1] {
		t.Errorf("no visible refinement at 40%% load: NP %.3f vs Duerr %.3f", np[1], du[1])
	}
	cfg.Points = []int{0}
	if _, err := AblationUtilization(cfg); err == nil {
		t.Error("0%% utilization accepted")
	}
}

func TestAblationPriority(t *testing.T) {
	cfg := tiny()
	cfg.Points = []int{30}
	cfg.GraphsPerPoint = 4
	tbl := runCounted(t, func() (*Table, error) { return AblationPriority(cfg) })
	rm, _ := tbl.Column("S-diff(RM)")
	topo, _ := tbl.Column("S-diff(topo)")
	if rm[0] <= 0 || topo[0] <= 0 {
		t.Error("non-positive bounds")
	}
	// Topological order must not be worse on average: every same-ECU hop
	// becomes the θ = T case.
	if topo[0] > rm[0]+1e-9 {
		t.Errorf("topological %.3f worse than RM %.3f", topo[0], rm[0])
	}
	cfg.Points = []int{100}
	if _, err := AblationPriority(cfg); err == nil {
		t.Error("100%% utilization accepted")
	}
}

func TestAblationGreedyBuffers(t *testing.T) {
	cfg := tiny()
	cfg.Points = []int{10}
	cfg.GraphsPerPoint = 3
	tbl := runCounted(t, func() (*Table, error) { return AblationGreedyBuffers(cfg) })
	sd, _ := tbl.Column("S-diff")
	b1, _ := tbl.Column("S-diff-B1")
	bg, _ := tbl.Column("S-diff-Bg")
	sim, _ := tbl.Column("Sim")
	simBg, _ := tbl.Column("Sim-Bg")
	if bg[0] > sd[0]+1e-9 {
		t.Errorf("greedy bound %.3f above the original %.3f", bg[0], sd[0])
	}
	if bg[0] > b1[0]+1e-9 {
		t.Errorf("greedy %.3f worse than single application %.3f", bg[0], b1[0])
	}
	if sim[0] > sd[0]+1e-9 || simBg[0] > bg[0]+1e-9 {
		t.Error("simulated values exceed their bounds")
	}
}
