package integration

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/backward"
	"repro/internal/chains"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/randgraph"
	"repro/internal/sched"
	"repro/internal/timeu"
)

// This file pins the trie-based analysis fast path (core/fastpath.go) to
// the legacy per-pair pipeline it replaced, which survives as
// core.DisparityReference. The contract is BIT-IDENTICAL results —
// every pair's bound, alignment coefficients, sampling windows, and
// stripped chains, plus the task-level argmax — across both backward
// methods, both communication semantics, and
// buffered channels. A single differing bit means the shared-prefix
// bound recurrence, the unified c=1 formula, or the dominance prune is
// wrong.

// comparePairExact checks one fast-path pair against the reference,
// including the stripped chain contents (the fast path materializes
// them from trie prefixes rather than chains.StripCommonSuffix).
func comparePairExact(t *testing.T, trial int, label string, got, want *core.PairBound) {
	t.Helper()
	if !got.Lambda.Equal(want.Lambda) || !got.Nu.Equal(want.Nu) {
		t.Errorf("trial %d %s: fast pair chains %v|%v, reference %v|%v",
			trial, label, got.Lambda, got.Nu, want.Lambda, want.Nu)
	}
	comparePair(t, trial, label, got, want)
}

// newAnalyses builds the fast-path analysis under test for each backward
// method: the paper's NP-FP bounds (the production setup) and the Dürr
// baseline (the ablation setup).
func newAnalyses(t *testing.T, g *model.Graph) map[string]*core.Analysis {
	t.Helper()
	np, err := core.New(g)
	if err != nil {
		return nil
	}
	res := sched.Analyze(g, sched.NonPreemptiveFP)
	duerr := core.NewWithBackward(g, backward.NewAnalyzer(g, res, backward.Duerr))
	return map[string]*core.Analysis{"np": np, "duerr": duerr}
}

// varyCorpus applies the differential corpus' perturbations: every
// fifth workload runs under LET, every seventh carries random buffers.
func varyCorpus(t *testing.T, g *model.Graph, trial int, rng *rand.Rand) {
	t.Helper()
	if trial%5 == 1 {
		for i := 0; i < g.NumTasks(); i++ {
			g.Task(model.TaskID(i)).Sem = model.LET
		}
	}
	if trial%7 == 2 {
		for _, e := range g.Edges() {
			if rng.Intn(3) == 0 {
				if err := g.SetBuffer(e.Src, e.Dst, 1+rng.Intn(3)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestAnalysisFastPathMatchesReference sweeps hundreds of seeded WATERS
// workloads and checks the fast path's four entry points against the
// reference pipeline: Disparity (full detail, every pair field by
// field), ForEachPairBound (the same pairs streamed, run in full and
// stopped early), DisparityBound (bound + argmax pair only), and the
// greedy optimizer built on top of them.
func TestAnalysisFastPathMatchesReference(t *testing.T) {
	trials := 200
	if testing.Short() {
		trials = 60
	}
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < trials; trial++ {
		g := genWaters(t, rng, 6+rng.Intn(9))
		varyCorpus(t, g, trial, rng)
		analyses := newAnalyses(t, g)
		if analyses == nil {
			continue // analysis rejects the graph equally in both modes
		}
		sink := g.Sinks()[0]
		for label, a := range analyses {
			for _, m := range []core.Method{core.PDiff, core.SDiff} {
				name := label + "/" + m.String()
				want, errW := a.DisparityReference(sink, m, 0)
				got, errG := a.Disparity(sink, m, 0)
				if (errG == nil) != (errW == nil) {
					t.Fatalf("trial %d %s: fast err %v, reference err %v", trial, name, errG, errW)
				}
				if errW != nil {
					continue
				}
				if got.Truncated {
					t.Errorf("trial %d %s: fast path truncated where the reference enumerated fully", trial, name)
				}
				if got.NumPairs != len(want.Pairs) {
					t.Errorf("trial %d %s: fast NumPairs %d, reference %d", trial, name, got.NumPairs, len(want.Pairs))
				}
				compareTask(t, trial, name, got, want)
				for i := range got.Pairs {
					comparePairExact(t, trial, name, got.Pairs[i], want.Pairs[i])
				}
				compareStream(t, trial, name, a, sink, m, got)

				bd, err := a.DisparityBound(sink, m, 0)
				if err != nil {
					t.Fatalf("trial %d %s: DisparityBound: %v", trial, name, err)
				}
				if bd.Bound != want.Bound || bd.NumPairs != len(want.Pairs) {
					t.Errorf("trial %d %s: DisparityBound = %v over %d pairs, reference %v over %d",
						trial, name, bd.Bound, bd.NumPairs, want.Bound, len(want.Pairs))
				}
				if want.ArgMax >= 0 {
					if len(bd.Pairs) != 1 {
						t.Fatalf("trial %d %s: DisparityBound carried %d pairs, want 1", trial, name, len(bd.Pairs))
					}
					comparePairExact(t, trial, name+"/bound", bd.Pairs[0], want.Pairs[want.ArgMax])
				} else if len(bd.Pairs) != 0 {
					t.Errorf("trial %d %s: DisparityBound carried pairs on a pairless task", trial, name)
				}
			}
		}

		// The greedy optimizer runs entirely on the fast path (pruned
		// bounds, retargeted tries). Its endpoints must agree with the
		// reference: Before is the reference S-diff bound, and After is
		// what the reference computes on the buffered graph.
		a := analyses["np"]
		greedy, err := a.OptimizeTaskGreedy(sink, 0, 4)
		if err != nil {
			t.Fatalf("trial %d: greedy: %v", trial, err)
		}
		want, err := a.DisparityReference(sink, core.SDiff, 0)
		if err != nil {
			t.Fatal(err)
		}
		if greedy.Before != want.Bound {
			t.Errorf("trial %d: greedy Before %v, reference %v", trial, greedy.Before, want.Bound)
		}
		if len(greedy.Plans) > 0 {
			re, err := core.New(greedy.Graph)
			if err != nil {
				t.Fatalf("trial %d: buffered graph rejected: %v", trial, err)
			}
			reTd, err := re.DisparityReference(sink, core.SDiff, 0)
			if err != nil {
				t.Fatal(err)
			}
			if reTd.Bound != greedy.After {
				t.Errorf("trial %d: greedy After %v, reference re-analysis of the buffered graph %v",
					trial, greedy.After, reTd.Bound)
			}
		}
	}
}

// compareStream checks ForEachPairBound against Disparity's result td:
// the full stream yields every Pairs[rank] in rank order, field by
// field, and td's bound and worst pair; a stream stopped at rank k
// (k = trial mod the pair count) summarizes ranks 0..k — their maximum
// and the first pair attaining it — while NumPairs stays the full
// count.
func compareStream(t *testing.T, trial int, name string, a *core.Analysis, sink model.TaskID, m core.Method, td *core.TaskDisparity) {
	t.Helper()
	next := 0
	full, err := a.ForEachPairBound(sink, m, 0, func(rank int, pb *core.PairBound) bool {
		if rank != next || rank >= len(td.Pairs) {
			t.Fatalf("trial %d %s: stream rank %d, want %d of %d", trial, name, rank, next, len(td.Pairs))
		}
		comparePairExact(t, trial, name+"/stream", pb, td.Pairs[rank])
		next++
		return true
	})
	if err != nil {
		t.Fatalf("trial %d %s: ForEachPairBound: %v", trial, name, err)
	}
	if next != len(td.Pairs) || full.Bound != td.Bound || full.NumPairs != td.NumPairs || full.Truncated != td.Truncated {
		t.Errorf("trial %d %s: stream of %d pairs = %v over %d (truncated=%v), Disparity %d pairs = %v over %d (truncated=%v)",
			trial, name, next, full.Bound, full.NumPairs, full.Truncated, len(td.Pairs), td.Bound, td.NumPairs, td.Truncated)
	}
	if td.ArgMax < 0 {
		if len(full.Pairs) != 0 {
			t.Errorf("trial %d %s: stream carried pairs on a pairless task", trial, name)
		}
		return
	}
	comparePairExact(t, trial, name+"/stream-worst", full.Pairs[0], td.Pairs[td.ArgMax])

	k := trial % len(td.Pairs)
	worst := 0
	for r := 1; r <= k; r++ {
		if td.Pairs[r].Bound > td.Pairs[worst].Bound {
			worst = r
		}
	}
	part, err := a.ForEachPairBound(sink, m, 0, func(rank int, _ *core.PairBound) bool { return rank < k })
	if err != nil {
		t.Fatalf("trial %d %s: stopped ForEachPairBound: %v", trial, name, err)
	}
	if part.Bound != td.Pairs[worst].Bound || part.NumPairs != td.NumPairs || part.ArgMax != 0 || len(part.Pairs) != 1 {
		t.Fatalf("trial %d %s: stream stopped at rank %d = %v over %d (argmax %d, %d pairs), want %v over %d",
			trial, name, k, part.Bound, part.NumPairs, part.ArgMax, len(part.Pairs), td.Pairs[worst].Bound, td.NumPairs)
	}
	comparePairExact(t, trial, name+"/stream-stopped", part.Pairs[0], td.Pairs[worst])
}

// TestAnalysisParallelMatchesSerial checks the descent's parallel block
// evaluation against the serial pair loops on workloads past core's
// parallel threshold (4096 chain pairs): fleet graphs of 96–100
// source→fusion chains, perturbed like the differential corpus. Every
// DisparityBound call must move the core.bound.parallel counter, so a
// raised threshold cannot turn this test serial unnoticed. Run under
// -race it is the data-race smoke test of the parallel blocks; the
// equality check pins their determinism (the (bound, rank) merge must
// reproduce the serial first-attaining argmax exactly). The forced
// parallel runs on small graphs are core.TestDescentMatchesReference's.
func TestAnalysisParallelMatchesSerial(t *testing.T) {
	configs := []randgraph.FleetConfig{
		{Zones: 2, ECUsPerZone: 4, PipesPerECU: 12, ProcDepth: 2, TailLen: 1},
		{Zones: 4, ECUsPerZone: 3, PipesPerECU: 8, ProcDepth: 2, TailLen: 0},
		{Zones: 3, ECUsPerZone: 4, PipesPerECU: 8, ProcDepth: 3, TailLen: 2},
		{Zones: 2, ECUsPerZone: 5, PipesPerECU: 10, ProcDepth: 2, TailLen: 1},
	}
	trials := 8
	if testing.Short() {
		trials = 4
	}
	parallelRuns := metrics.C("core.bound.parallel")
	rng := rand.New(rand.NewSource(80))
	for trial := 0; trial < trials; trial++ {
		g, fusion := populateFleet(t, configs[trial%len(configs)], rng)
		varyCorpus(t, g, trial, rng)
		a, err := core.New(g)
		if err != nil {
			t.Fatalf("trial %d: fleet workload rejected: %v", trial, err)
		}
		for _, m := range []core.Method{core.PDiff, core.SDiff} {
			before := parallelRuns.Load()
			bd := compareDescentFlat(t, trial, m.String()+"/parallel", a, fusion, m)
			if bd.NumPairs < 1<<12 || parallelRuns.Load() == before {
				t.Fatalf("trial %d %v: DisparityBound over %d pairs did not run its blocks in parallel",
					trial, m, bd.NumPairs)
			}
		}
	}
}

// TestAnalysisSubtreePruneMatchesFlat checks the subtree
// branch-and-bound descent, the only search DisparityBound runs,
// against the flat row-major loop that Disparity runs over every pair,
// on the WATERS corpus: same bound, same pair count, and the same
// first-attaining argmax pair field by field, both equal to the
// reference pipeline's. The forced small block caps are
// core.TestDescentMatchesReference's.
func TestAnalysisSubtreePruneMatchesFlat(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 20
	}
	rng := rand.New(rand.NewSource(82))
	for trial := 0; trial < trials; trial++ {
		g := genWaters(t, rng, 8+rng.Intn(8))
		varyCorpus(t, g, trial, rng)
		a, err := core.New(g)
		if err != nil {
			continue // rejected before any pair search runs
		}
		sink := g.Sinks()[0]
		for _, m := range []core.Method{core.PDiff, core.SDiff} {
			compareDescentFlat(t, trial, m.String()+"/pruned", a, sink, m)
		}
	}
}

// compareDescentFlat runs the three pair searches of a on sink —
// DisparityBound (the descent), Disparity (the flat loop) and
// DisparityReference — and requires one bound, one pair count and one
// argmax: the flat loop's ArgMax is the reference's, and the descent's
// worst pair equals the flat loop's Pairs[ArgMax] field by field.
// Returns the descent's result for further checks.
func compareDescentFlat(t *testing.T, trial int, label string, a *core.Analysis, sink model.TaskID, m core.Method) *core.TaskDisparity {
	t.Helper()
	flat, err := a.Disparity(sink, m, 0)
	if err != nil {
		t.Fatalf("trial %d %s: Disparity: %v", trial, label, err)
	}
	want, err := a.DisparityReference(sink, m, 0)
	if err != nil {
		t.Fatalf("trial %d %s: DisparityReference: %v", trial, label, err)
	}
	bd, err := a.DisparityBound(sink, m, 0)
	if err != nil {
		t.Fatalf("trial %d %s: DisparityBound: %v", trial, label, err)
	}
	if bd.Bound != flat.Bound || bd.Bound != want.Bound || bd.NumPairs != flat.NumPairs ||
		bd.NumPairs != len(want.Pairs) || bd.Truncated || flat.Truncated || flat.ArgMax != want.ArgMax {
		t.Fatalf("trial %d %s: descent %v over %d pairs (truncated=%v), flat %v over %d at rank %d (truncated=%v), reference %v over %d at rank %d",
			trial, label, bd.Bound, bd.NumPairs, bd.Truncated, flat.Bound, flat.NumPairs, flat.ArgMax, flat.Truncated,
			want.Bound, len(want.Pairs), want.ArgMax)
	}
	if flat.ArgMax < 0 {
		if len(bd.Pairs) != 0 {
			t.Errorf("trial %d %s: DisparityBound carried pairs on a pairless task", trial, label)
		}
		return bd
	}
	if len(bd.Pairs) != 1 {
		t.Fatalf("trial %d %s: DisparityBound carried %d pairs, want 1", trial, label, len(bd.Pairs))
	}
	comparePairExact(t, trial, label, bd.Pairs[0], flat.Pairs[flat.ArgMax])
	return bd
}

// TestAnalysisTruncationMatchesReferencePrefix checks the capped-
// enumeration contract: where the reference pipeline fails with
// chains.ErrTooManyChains, the fast path analyzes exactly the first
// maxChains chains (in enumeration order) and raises Truncated — so its
// bound must equal a hand-built reference over that same prefix.
func TestAnalysisTruncationMatchesReferencePrefix(t *testing.T) {
	const cap = 4
	rng := rand.New(rand.NewSource(81))
	checked := 0
	for trial := 0; trial < 120 && checked < 25; trial++ {
		g := genWaters(t, rng, 8+rng.Intn(8))
		sink := g.Sinks()[0]
		all, err := chains.Enumerate(g, sink, 0)
		if err != nil || len(all) <= cap {
			continue
		}
		a, err := core.New(g)
		if err != nil {
			continue
		}
		checked++
		if _, err := a.DisparityReference(sink, core.SDiff, cap); !errors.Is(err, chains.ErrTooManyChains) {
			t.Fatalf("trial %d: reference returned %v at the cap, want ErrTooManyChains", trial, err)
		}
		for _, m := range []core.Method{core.PDiff, core.SDiff} {
			got, err := a.Disparity(sink, m, cap)
			if err != nil {
				t.Fatalf("trial %d %v: fast path errored at the cap: %v", trial, m, err)
			}
			if !got.Truncated {
				t.Fatalf("trial %d %v: fast path did not flag truncation", trial, m)
			}
			if got.NumPairs != chains.NumPairs(cap) {
				t.Errorf("trial %d %v: %d pairs analyzed, want %d", trial, m, got.NumPairs, chains.NumPairs(cap))
			}
			// Reference over the same prefix, built by hand.
			var want timeu.Time
			err = chains.ForEachPair(cap, func(i, j int) error {
				la, nu := all[i], all[j]
				if m == core.SDiff {
					var err error
					la, nu, err = chains.StripCommonSuffix(la, nu)
					if err != nil {
						return err
					}
				}
				pb, err := a.PairDisparity(la, nu, m)
				if err != nil {
					return err
				}
				want = timeu.Max(want, pb.Bound)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if got.Bound != want {
				t.Errorf("trial %d %v: truncated bound %v, prefix reference %v", trial, m, got.Bound, want)
			}
			bd, err := a.DisparityBound(sink, m, cap)
			if err != nil {
				t.Fatal(err)
			}
			if !bd.Truncated || bd.Bound != want {
				t.Errorf("trial %d %v: DisparityBound at the cap = %v (truncated=%v), want %v (truncated)",
					trial, m, bd.Bound, bd.Truncated, want)
			}
		}
	}
	if checked < 10 {
		t.Fatalf("only %d workloads exceeded the %d-chain cap", checked, cap)
	}
}
