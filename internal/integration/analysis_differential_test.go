package integration

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/backward"
	"repro/internal/chains"
	"repro/internal/core"
	"repro/internal/model"
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
// workloads and checks the fast path's three entry points against the
// reference pipeline: Disparity (full detail, every pair field by
// field), DisparityBound (bound + argmax pair only), and the greedy
// optimizer built on top of them.
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

// TestAnalysisParallelMatchesSerial forces the parallel pair loop on by
// dropping core.ParallelPairThreshold to 1 and checks DisparityBound
// against both a serial fast-path run and the reference. Run under
// -race this is the data-race smoke test of the block-partitioned
// reduction; the equality check pins its determinism (the block-ordered
// merge must reproduce the serial first-attaining argmax exactly).
func TestAnalysisParallelMatchesSerial(t *testing.T) {
	old := core.ParallelPairThreshold
	t.Cleanup(func() { core.ParallelPairThreshold = old })

	trials := 40
	if testing.Short() {
		trials = 12
	}
	rng := rand.New(rand.NewSource(80))
	for trial := 0; trial < trials; trial++ {
		g := genWaters(t, rng, 8+rng.Intn(8))
		varyCorpus(t, g, trial, rng)
		sink := g.Sinks()[0]
		for _, m := range []core.Method{core.PDiff, core.SDiff} {
			core.ParallelPairThreshold = 1 << 30 // serial
			serialA, err := core.New(g)
			if err != nil {
				break
			}
			serial, err := serialA.DisparityBound(sink, m, 0)
			if err != nil {
				t.Fatal(err)
			}
			core.ParallelPairThreshold = 1 // every pair loop fans out
			parA, err := core.New(g)
			if err != nil {
				t.Fatal(err)
			}
			par, err := parA.DisparityBound(sink, m, 0)
			if err != nil {
				t.Fatal(err)
			}
			if par.Bound != serial.Bound || par.NumPairs != serial.NumPairs || len(par.Pairs) != len(serial.Pairs) {
				t.Fatalf("trial %d %v: parallel bound %v/%d pairs, serial %v/%d",
					trial, m, par.Bound, par.NumPairs, serial.Bound, serial.NumPairs)
			}
			for i := range par.Pairs {
				comparePairExact(t, trial, m.String()+"/parallel", par.Pairs[i], serial.Pairs[i])
			}
		}
	}
}

// TestAnalysisSubtreePruneMatchesFlat toggles the subtree
// branch-and-bound descent (core.SubtreePrune) off and on over the
// WATERS corpus and checks that DisparityBound is bit-identical in both
// modes and against the reference pipeline: same bound, same pair
// count, and the same first-attaining argmax pair field by field. A
// tiny rect cap is also exercised so the descent is forced to split
// and re-merge blocks rather than evaluating one big triangle.
func TestAnalysisSubtreePruneMatchesFlat(t *testing.T) {
	oldPrune, oldCap := core.SubtreePrune, core.SubtreeRectCap
	t.Cleanup(func() { core.SubtreePrune, core.SubtreeRectCap = oldPrune, oldCap })

	trials := 60
	if testing.Short() {
		trials = 20
	}
	rng := rand.New(rand.NewSource(82))
	for trial := 0; trial < trials; trial++ {
		g := genWaters(t, rng, 8+rng.Intn(8))
		varyCorpus(t, g, trial, rng)
		sink := g.Sinks()[0]
		for _, m := range []core.Method{core.PDiff, core.SDiff} {
			core.SubtreePrune = false
			flatA, err := core.New(g)
			if err != nil {
				break
			}
			flat, err := flatA.DisparityBound(sink, m, 0)
			if err != nil {
				t.Fatal(err)
			}
			want, err := flatA.DisparityReference(sink, m, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, cap := range []int{core.SubtreeRectCap, 4} {
				core.SubtreePrune, core.SubtreeRectCap = true, cap
				prunedA, err := core.New(g)
				if err != nil {
					t.Fatal(err)
				}
				pruned, err := prunedA.DisparityBound(sink, m, 0)
				if err != nil {
					t.Fatal(err)
				}
				name := m.String() + "/pruned"
				if pruned.Bound != flat.Bound || pruned.Bound != want.Bound ||
					pruned.NumPairs != flat.NumPairs || len(pruned.Pairs) != len(flat.Pairs) {
					t.Fatalf("trial %d %s cap=%d: pruned bound %v/%d pairs, flat %v/%d, reference %v",
						trial, name, cap, pruned.Bound, pruned.NumPairs, flat.Bound, flat.NumPairs, want.Bound)
				}
				for i := range pruned.Pairs {
					comparePairExact(t, trial, name, pruned.Pairs[i], flat.Pairs[i])
				}
			}
			core.SubtreePrune, core.SubtreeRectCap = oldPrune, oldCap
		}
	}
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
