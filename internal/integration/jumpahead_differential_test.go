package integration

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/timeu"
)

// Steady-state jump-ahead (internal/sim/cycle.go) claims that skipping
// repeated hyperperiod cycles is invisible: identical Stats (including
// per-channel counters) and identical observer metrics, on every
// workload — whether the jump engages, falls back, or the workload is
// sporadic/randomized and jump-ahead never arms. The harness here runs
// the pooled engine twice per workload, jump armed vs force-disabled,
// over the same corpus generator as the engine differential, and
// demands bit identity. It also requires that the jump actually
// engages on a healthy fraction of the corpus — a vacuously-green
// differential (nothing ever jumped) is a failure, not a pass.
//
// A jump whose matched cycle began before the largest observer warm-up
// keeps one trailing cycle before the horizon, so the corpus runs under
// four warm-up regimes: short, long enough that the cycle closes before
// it, different per observer, and longer than the horizon.

// jumpMetrics flattens every observer metric of one run into a
// comparable value.
type jumpMetrics struct {
	Stats     sim.Stats
	Disparity []timeu.Time
	MRDA      []timeu.Time
	MDA       []timeu.Time
	MRRT      []timeu.Time
	MRT       []timeu.Time
	Fresh     []timeu.Time
	BackMin   timeu.Time
	BackMax   timeu.Time
	BackOK    bool
}

// jumpWarmups are the per-observer warm-ups of one regime.
type jumpWarmups struct {
	disp, lat, back timeu.Time
}

func uniformWarmup(w timeu.Time) jumpWarmups { return jumpWarmups{w, w, w} }

func runJumpTrial(t *testing.T, g *model.Graph, cfg sim.Config, warm jumpWarmups, disable bool) (*jumpMetrics, sim.JumpStats) {
	t.Helper()
	sink := g.Sinks()[0]
	var origins []model.TaskID
	for i := 0; i < g.NumTasks(); i++ {
		id := model.TaskID(i)
		if g.Task(id).ECU == model.NoECU || g.IsSource(id) {
			origins = append(origins, id)
		}
	}
	disp := sim.NewDisparityObserver(warm.disp)
	lat := sim.NewLatencyObserver(sink, origins, warm.lat)
	back := sim.NewBackwardObserver(sink, origins[0], warm.back)
	cfg.Observers = []sim.Observer{disp, lat, back}
	cfg.DisableJumpAhead = disable

	eng, err := sim.NewEngine(g)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := &jumpMetrics{Stats: *stats}
	for i := 0; i < g.NumTasks(); i++ {
		m.Disparity = append(m.Disparity, disp.Max(model.TaskID(i)))
	}
	for _, src := range origins {
		v, _ := lat.MaxReducedAge(src)
		m.MRDA = append(m.MRDA, v)
		v, _ = lat.MaxAge(src)
		m.MDA = append(m.MDA, v)
		v, _ = lat.MaxReducedReaction(src)
		m.MRRT = append(m.MRRT, v)
		v, _ = lat.MaxReaction(src)
		m.MRT = append(m.MRT, v)
		v, _ = lat.MinFreshAge(src)
		m.Fresh = append(m.Fresh, v)
	}
	m.BackMin, m.BackMax, m.BackOK = back.Range()
	return m, eng.LastJump()
}

// TestJumpAheadMatchesFullExecution is the jump-ahead differential:
// ≥200 seeded WATERS workloads across all exec models, implicit, LET,
// mixed semantics, buffered channels, and sporadic stimuli, under each
// warm-up regime; jumped and full runs must agree bit-for-bit on stats
// and every observer metric.
func TestJumpAheadMatchesFullExecution(t *testing.T) {
	trials := 200
	horizon := 4 * timeu.Second
	if testing.Short() {
		trials = 40
		horizon = 2 * timeu.Second
	}
	type trialCase struct {
		g   *model.Graph
		cfg sim.Config
	}
	rng := rand.New(rand.NewSource(4242))
	corpus := make([]trialCase, trials)
	for trial := range corpus {
		g := diffWorkload(t, rng, trial)
		corpus[trial] = trialCase{g, sim.Config{
			Horizon: horizon,
			Exec:    execModels[trial%len(execModels)],
			Seed:    rng.Int63(),
		}}
	}
	for _, regime := range []struct {
		name string
		warm jumpWarmups
		// preWarmup demands a jump that closes before the largest
		// warm-up on a healthy fraction of the corpus. Such a jump
		// matched a cycle that began before that warm-up, so it takes
		// the trailing-cycle path.
		preWarmup bool
	}{
		{"warm=100ms", uniformWarmup(100 * timeu.Millisecond), false},
		{"warm=1s", uniformWarmup(timeu.Second), true},
		{"warm=mixed", jumpWarmups{
			disp: 300 * timeu.Millisecond,
			lat:  timeu.Second,
			back: 0,
		}, true},
		{"warm=5s", uniformWarmup(5 * timeu.Second), false},
	} {
		t.Run(regime.name, func(t *testing.T) {
			w := regime.warm
			wmax := max(w.disp, w.lat, w.back)
			engaged, eligible, pre := 0, 0, 0
			for trial, tc := range corpus {
				jump, js := runJumpTrial(t, tc.g, tc.cfg, w, false)
				full, fullJS := runJumpTrial(t, tc.g, tc.cfg, w, true)
				if fullJS.Eligible || fullJS.Engaged {
					t.Fatalf("trial %d: DisableJumpAhead run still armed: %+v", trial, fullJS)
				}
				if !reflect.DeepEqual(jump, full) {
					t.Fatalf("trial %d (exec %s, jump %+v): jumped run diverges from full\njump: %+v\nfull: %+v",
						trial, tc.cfg.Exec.Name(), js, jump, full)
				}
				if js.Eligible {
					eligible++
				}
				if js.Engaged {
					engaged++
					if js.Transient < wmax {
						pre++
					}
				}
			}
			// WATERS period sets share divisors (hyperperiod ≤ 200ms), so
			// the deterministic 2/5 of the corpus (wcet, bcet exec) minus
			// sporadic variants must essentially all engage. Demand a
			// healthy floor so the differential can never pass vacuously.
			if engaged < trials/5 {
				t.Fatalf("jump engaged on only %d/%d trials (%d eligible) — differential is vacuous",
					engaged, trials, eligible)
			}
			if regime.preWarmup && pre < trials/5 {
				t.Fatalf("a jump closed before the warm-up on only %d/%d trials — the trailing-cycle path is untested",
					pre, trials)
			}
			t.Logf("jump engaged on %d/%d trials (%d eligible, %d closed before the warm-up)",
				engaged, trials, eligible, pre)
		})
	}
}
