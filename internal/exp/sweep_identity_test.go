package exp

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/timeu"
)

var update = flag.Bool("update", false, "rewrite golden files")

// identityConfig is the pinned configuration of the sweep-identity
// goldens. Never change it: the goldens under testdata/ were generated
// from the pre-refactor sweep implementations, and every subsequent
// rewrite of the sweep scaffold must reproduce them byte for byte
// (same graphs, same RNG streams, same aggregation).
func identityConfig() Config {
	cfg := Defaults()
	cfg.Points = []int{5, 8}
	cfg.GraphsPerPoint = 3
	cfg.OffsetsPerGraph = 2
	cfg.Horizon = 500 * timeu.Millisecond
	cfg.Warmup = 100 * timeu.Millisecond
	cfg.Seed = 1
	return cfg
}

func checkSweepGolden(t *testing.T, name string, tbl *Table) {
	t.Helper()
	var sb strings.Builder
	if err := tbl.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s differs from pre-refactor golden %s:\n--- got ---\n%s\n--- want ---\n%s",
			name, path, got, want)
	}
}

// TestSweepIdentity pins every sweep entry point against goldens
// generated by the pre-refactor per-sweep scaffolds. It is the
// regression net for the shared sweep engine: the per-(point, graph)
// RNG derivation, generation retry loops, aggregation, and table
// rendering must all be bit-identical to the originals.
func TestSweepIdentity(t *testing.T) {
	type sweep struct {
		name string
		run  func(t *testing.T) []*Table
	}
	sweeps := []sweep{
		{"sweep_fig6ab", func(t *testing.T) []*Table {
			abs, ratio, err := Fig6ab(identityConfig())
			if err != nil {
				t.Fatal(err)
			}
			return []*Table{abs, ratio}
		}},
		{"sweep_fig6cd", func(t *testing.T) []*Table {
			cfg := identityConfig()
			cfg.Points = []int{3, 5}
			abs, ratio, err := Fig6cd(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return []*Table{abs, ratio}
		}},
		{"sweep_bounds", func(t *testing.T) []*Table {
			tbl, err := BoundsSweep(identityConfig())
			if err != nil {
				t.Fatal(err)
			}
			return []*Table{tbl}
		}},
		{"sweep_ablation_backward", func(t *testing.T) []*Table {
			cfg := identityConfig()
			cfg.Points = []int{8, 12}
			tbl, err := AblationBackward(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return []*Table{tbl}
		}},
		{"sweep_ablation_tail", func(t *testing.T) []*Table {
			cfg := identityConfig()
			cfg.Points = []int{0, 4}
			tbl, err := AblationTail(cfg, 14)
			if err != nil {
				t.Fatal(err)
			}
			return []*Table{tbl}
		}},
		{"sweep_ablation_exec", func(t *testing.T) []*Table {
			cfg := identityConfig()
			cfg.Points = []int{8}
			tbl, err := AblationExec(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return []*Table{tbl}
		}},
		{"sweep_ablation_semantics", func(t *testing.T) []*Table {
			cfg := identityConfig()
			cfg.Points = []int{8}
			tbl, err := AblationSemantics(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return []*Table{tbl}
		}},
		{"sweep_ablation_adversarial", func(t *testing.T) []*Table {
			cfg := identityConfig()
			cfg.Points = []int{3}
			cfg.GraphsPerPoint = 2
			tbl, err := AblationAdversarial(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return []*Table{tbl}
		}},
		{"sweep_ablation_utilization", func(t *testing.T) []*Table {
			cfg := identityConfig()
			cfg.Points = []int{5, 40}
			tbl, err := AblationUtilization(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return []*Table{tbl}
		}},
		{"sweep_ablation_priority", func(t *testing.T) []*Table {
			cfg := identityConfig()
			cfg.Points = []int{30}
			cfg.GraphsPerPoint = 4
			tbl, err := AblationPriority(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return []*Table{tbl}
		}},
		{"sweep_ablation_greedy", func(t *testing.T) []*Table {
			cfg := identityConfig()
			cfg.Points = []int{10}
			tbl, err := AblationGreedyBuffers(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return []*Table{tbl}
		}},
		{"sweep_fleet", func(t *testing.T) []*Table {
			cfg := identityConfig()
			cfg.Points = []int{1, 2}
			cfg.GraphsPerPoint = 2
			tbl, err := FleetSweep(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return []*Table{tbl}
		}},
	}
	for _, s := range sweeps {
		s := s
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			tables := s.run(t)
			if len(tables) == 1 {
				checkSweepGolden(t, s.name, tables[0])
				return
			}
			for i, tbl := range tables {
				checkSweepGolden(t, s.name+"_"+string(rune('a'+i)), tbl)
			}
		})
	}
}
