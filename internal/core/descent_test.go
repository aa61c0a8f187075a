package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/backward"
	"repro/internal/chains"
	"repro/internal/model"
	"repro/internal/randgraph"
	"repro/internal/sched"
	"repro/internal/timeu"
	"repro/internal/waters"
)

// TestDescentMatchesReference pins boundSubtree, the only pair search
// DisparityBound runs, to DisparityReference on WATERS graphs (every
// 5th all-LET, every 7th with enlarged buffers): the same bound and the
// same first-attaining row-major rank, which is the reference's ArgMax.
// Each graph runs at the production block cap and at a cap of 4 that
// forces deep splits and many cross-block ties, both serially and with
// the blocks on all CPUs — under -race the latter is the data-race test
// of the parallel evaluation. Every such run is repeated at the
// cutoffs 0, max/2, max and max+1 of the reference bound max: a cutoff
// at or below max must return some pair's bound ≥ the cutoff, and one
// above it the exact bound and rank. It also pins the pair accounting
// the decision record and the repository benchmark read: every
// boundSubtree call, cut or not, and every DisparityBound call moves
// core.pairs.bounded + core.pairs.pruned + core.pairs.subtree_pruned
// by exactly NumPairs, and every Disparity call moves
// core.pairs.bounded by exactly NumPairs. The last trial is a pinned
// graph whose worst S-diff pair's Theorem-2 value exceeds Theorem 1 on
// the same stripped pair, so a descent pruning c ≥ 2 pairs by Theorem
// 1 alone misses it.
func TestDescentMatchesReference(t *testing.T) {
	// accounted is the sum the three pair counters must grow by.
	accounted := func() int64 {
		return pairsBounded.Load() + pairsPruned.Load() + pairsSubtreePruned.Load()
	}
	const trials, pinnedSeed = 61, 158
	for trial := 0; trial < trials; trial++ {
		seed := 500 + int64(trial)
		if trial == trials-1 {
			seed = pinnedSeed
		}
		g, sink := multiChainWorkload(t, seed)
		if trial%5 == 1 {
			for i := 0; i < g.NumTasks(); i++ {
				g.Task(model.TaskID(i)).Sem = model.LET
			}
		}
		if trial%7 == 2 {
			rng := rand.New(rand.NewSource(int64(trial)))
			for _, e := range g.Edges() {
				if rng.Intn(3) == 0 {
					if err := g.SetBuffer(e.Src, e.Dst, 2+rng.Intn(3)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		a, err := New(g)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, m := range []Method{PDiff, SDiff} {
			want, err := a.DisparityReference(sink, m, 0)
			if err != nil {
				t.Fatalf("trial %d %v: reference: %v", trial, m, err)
			}
			if trial == trials-1 && m == SDiff {
				worst := want.Pairs[want.ArgMax]
				t1, err := a.PairDisparity(worst.Lambda, worst.Nu, PDiff)
				if err != nil {
					t.Fatal(err)
				}
				if worst.Bound <= t1.Bound {
					t.Fatalf("pinned graph (seed %d) went stale: worst S-diff pair %v, Theorem 1 on it %v",
						pinnedSeed, worst.Bound, t1.Bound)
				}
			}
			ev := a.pairEvalFor(sink, 0)
			n := ev.idx.NumChains()
			numPairs := int64(want.NumPairs)
			for _, cap := range []int{subtreeRectCap, 4} {
				for _, parallel := range []bool{false, true} {
					for _, cutoff := range []timeu.Time{noCutoff, 0, want.Bound / 2, want.Bound, want.Bound + 1} {
						before := accounted()
						got := ev.boundSubtree(m, n, cap, parallel, cutoff)
						if got.err != nil {
							t.Fatalf("trial %d %v cap=%d parallel=%v cutoff=%v: %v", trial, m, cap, parallel, cutoff, got.err)
						}
						if cutoff == noCutoff || cutoff > want.Bound {
							if got.bound != want.Bound || got.rank != want.ArgMax {
								t.Errorf("trial %d %v cap=%d parallel=%v cutoff=%v: descent %v at rank %d, reference %v at rank %d",
									trial, m, cap, parallel, cutoff, got.bound, got.rank, want.Bound, want.ArgMax)
							}
						} else if got.rank < 0 || got.bound < cutoff || got.bound > want.Bound {
							t.Errorf("trial %d %v cap=%d parallel=%v cutoff=%v: cut descent %v at rank %d, want a pair's bound in [cutoff, %v]",
								trial, m, cap, parallel, cutoff, got.bound, got.rank, want.Bound)
						}
						if d := accounted() - before; d != numPairs {
							t.Errorf("trial %d %v cap=%d parallel=%v cutoff=%v: pair counters moved %d, want NumPairs %d",
								trial, m, cap, parallel, cutoff, d, numPairs)
						}
					}
				}
			}
			before := accounted()
			if _, err := a.DisparityBound(sink, m, 0); err != nil {
				t.Fatalf("trial %d %v: DisparityBound: %v", trial, m, err)
			}
			if d := accounted() - before; d != numPairs {
				t.Errorf("trial %d %v: DisparityBound moved the pair counters %d, want NumPairs %d", trial, m, d, numPairs)
			}
			bounded := pairsBounded.Load()
			if _, err := a.Disparity(sink, m, 0); err != nil {
				t.Fatalf("trial %d %v: Disparity: %v", trial, m, err)
			}
			if d := pairsBounded.Load() - bounded; d != numPairs {
				t.Errorf("trial %d %v: Disparity moved core.pairs.bounded %d, want NumPairs %d", trial, m, d, numPairs)
			}
		}
	}
}

// TestSDiffPruneBoundsNest pins the closed-form bounds the S-diff
// descent prunes with (subtree.go's package comment) to the values
// they must dominate: on every pair of every S-diff cross block, the
// evaluated pre-flooring value ≤ the pair's U ≤ its row's bound ≤ the
// block's bound, and on every triangle pair the value ≤ U — at the
// production block cap and at a cap of 4. The corpus covers WATERS
// graphs under Lemma 5, Dürr, all-LET, buffered edges and sporadic
// tasks, plus fusion-dense-shaped layered graphs; the Dürr and
// sporadic variants, which TestDescentMatchesReference does not draw,
// also run the descent against DisparityReference. It fails on a
// corpus that never reaches a c ≥ 2 pair or never has a value above
// Theorem 1 on its stripped pair.
func TestSDiffPruneBoundsNest(t *testing.T) {
	var shared, aboveT1 int
	check := func(name string, a *Analysis, sink model.TaskID) {
		t.Helper()
		ev := a.pairEvalFor(sink, 0)
		if ev.maskStride == 0 {
			t.Fatalf("%s: no path masks", name)
		}
		idx := ev.idx
		var s pairScratch
		var sc rectScratch
		var v pairVals
		// value evaluates a pair and returns its pre-flooring value, read
		// back from the two windows (both evaluation paths set them so).
		value := func(i, j int) timeu.Time {
			if err := ev.evalSDiff(i, j, &s, &v); err != nil {
				t.Fatalf("%s: pair (%d, %d): %v", name, i, j, err)
			}
			pre := max(timeu.Abs(v.wl.Hi-v.wn.Lo), timeu.Abs(v.wl.Lo-v.wn.Hi))
			if v.bound > pre {
				t.Fatalf("%s: pair (%d, %d): bound %v above its pre-flooring value %v", name, i, j, v.bound, pre)
			}
			return pre
		}
		// pairUB checks the value against U and counts the c ≥ 2 pairs
		// and those whose value exceeds the stripped Theorem-1 value.
		pairUB := func(i, j int, u, w, f int32) timeu.Time {
			pre, ub := value(i, j), ev.pairUB(i, j, u, w, f)
			if pre > ub {
				t.Fatalf("%s: pair (%d, %d): value %v above U %v", name, i, j, pre, ub)
			}
			if _, _, ok := ev.splitSums(i, j, u, w, f, 0, ev.maskStride); ok {
				shared++
				wa, ba := ev.tb.Bounds(u, f)
				wb, bb := ev.tb.Bounds(w, f)
				if pre > sdiffUB(wb-ba, bb-wa, 0, 0) {
					aboveT1++
				}
			}
			return ub
		}
		for _, cap := range []int{subtreeRectCap, 4} {
			for _, r := range ev.collectRects(SDiff, cap) {
				if r.qLo < 0 {
					for i := int(r.pLo); i < int(r.pHi); i++ {
						for j := i + 1; j < int(r.pHi); j++ {
							u, w := idx.Leaf(i), idx.Leaf(j)
							pairUB(i, j, u, w, idx.LCA(u, w))
						}
					}
					continue
				}
				env := ev.leafBounds(&r, &sc)
				for i := int(r.pLo); i < int(r.pHi); i++ {
					u := idx.Leaf(i)
					wl, bl := ev.tb.Bounds(u, r.f)
					row, rowShared := ev.rowUB(&env, u, r.f, wl, bl)
					if row > r.ub {
						t.Fatalf("%s cap=%d: row %d bound %v above its block's %v", name, cap, i, row, r.ub)
					}
					for j := int(r.qLo); j < int(r.qHi); j++ {
						w := idx.Leaf(j)
						if f := idx.LCA(u, w); f != r.f {
							t.Fatalf("%s cap=%d: pair (%d, %d) joins at %d, block at %d", name, cap, i, j, f, r.f)
						}
						if ub := pairUB(i, j, u, w, r.f); ub > row {
							t.Fatalf("%s cap=%d: pair (%d, %d) U %v above its row's bound %v", name, cap, i, j, ub, row)
						}
						if _, _, ok := ev.splitSums(i, j, u, w, r.f, 0, ev.maskStride); (ok || ev.headTask[i] == ev.headTask[j]) && !rowShared {
							t.Fatalf("%s cap=%d: pair (%d, %d) shares a task in a row without shared tasks", name, cap, i, j)
						}
					}
				}
			}
		}
	}
	// descent runs the descent against the reference.
	descent := func(name string, a *Analysis, sink model.TaskID) {
		t.Helper()
		want, err := a.DisparityReference(sink, SDiff, 0)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		ev := a.pairEvalFor(sink, 0)
		for _, cap := range []int{subtreeRectCap, 4} {
			got := ev.boundSubtree(SDiff, ev.idx.NumChains(), cap, false, noCutoff)
			if got.err != nil || got.bound != want.Bound || got.rank != want.ArgMax {
				t.Errorf("%s cap=%d: descent %v at rank %d (err %v), reference %v at rank %d",
					name, cap, got.bound, got.rank, got.err, want.Bound, want.ArgMax)
			}
		}
	}
	for trial := 0; trial < 40; trial++ {
		g, sink := multiChainWorkload(t, 900+int64(trial))
		name := fmt.Sprintf("waters %d", trial)
		switch trial % 5 {
		case 1:
			for i := 0; i < g.NumTasks(); i++ {
				g.Task(model.TaskID(i)).Sem = model.LET
			}
		case 2:
			rng := rand.New(rand.NewSource(int64(trial)))
			for _, e := range g.Edges() {
				if rng.Intn(3) == 0 {
					if err := g.SetBuffer(e.Src, e.Dst, 2+rng.Intn(3)); err != nil {
						t.Fatal(err)
					}
				}
			}
		case 3:
			rng := rand.New(rand.NewSource(int64(trial)))
			for i := 0; i < g.NumTasks(); i++ {
				if tsk := g.Task(model.TaskID(i)); rng.Intn(3) == 0 {
					tsk.MaxPeriod = tsk.Period * 2
				}
			}
		}
		if trial%5 == 4 {
			bw := backward.NewAnalyzer(g, sched.Analyze(g, sched.NonPreemptiveFP), backward.Duerr)
			a := NewWithBackward(g, bw)
			check(name+" Dürr", a, sink)
			descent(name+" Dürr", a, sink)
			continue
		}
		a, err := New(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check(name, a, sink)
		if trial%5 == 3 {
			descent(name+" sporadic", a, sink)
		}
	}
	rng := rand.New(rand.NewSource(19))
	for layered := 0; layered < 4; {
		g, err := randgraph.Layered([]int{4, 4, 5, 5, 5}, 3, randgraph.Config{ECUs: 4, StimulusSources: true}, rng)
		if err != nil {
			t.Fatal(err)
		}
		waters.Populate(g, rng)
		a, err := New(g)
		if err != nil {
			continue
		}
		check(fmt.Sprintf("layered %d", layered), a, g.Sinks()[0])
		layered++
	}
	if shared == 0 || aboveT1 == 0 {
		t.Fatalf("vacuous corpus: %d c ≥ 2 pair visits, %d above Theorem 1", shared, aboveT1)
	}
}

// TestSDiffPruneSplitSumsExact pins the mask layer under the S-diff
// prune to the decomposition it stands for, on every pair: maskC1
// reports c = 1 exactly when chains.Decompose finds one common task,
// and splitSums returns E = Σ e(o_k) and S = Σ (T(o_k) − 1) over
// exactly the split points o₁…o_{c−1} that the decomposition lists.
// The masks hold only the index's shared tasks and are read by bit.
// The corpus has single-word WATERS graphs (Lemma 5, Dürr, LET), whose
// scattered stimulus sources give mask bits that differ from task IDs,
// and layered graphs with more than 64 shared tasks.
func TestSDiffPruneSplitSumsExact(t *testing.T) {
	var c2, sameHead, multiWord int
	check := func(name string, a *Analysis, sink model.TaskID) {
		t.Helper()
		ev := a.pairEvalFor(sink, 0)
		if ev.maskStride == 0 {
			t.Fatalf("%s: no path masks", name)
		}
		if ev.maskStride >= 2 {
			multiWord++
		}
		idx := ev.idx
		cs := idx.Chains()
		for i := range cs {
			for j := i + 1; j < len(cs); j++ {
				sl, sn, err := chains.StripCommonSuffix(cs[i], cs[j])
				if err != nil {
					t.Fatal(err)
				}
				d, err := chains.Decompose(sl, sn)
				if err != nil {
					t.Fatal(err)
				}
				var e, s timeu.Time
				for _, o := range d.Common[:d.C()-1] {
					e += ev.tb.SplitExcess(o)
					s += a.g.Task(o).Period - 1
				}
				u, w := idx.Leaf(i), idx.Leaf(j)
				f := idx.LCA(u, w)
				if c1, ok := ev.maskC1(u, w, f, ev.skipBit(i, d.SameHead)); !ok || c1 != (d.C() == 1) {
					t.Fatalf("%s: pair (%d, %d): maskC1 = %v (ok %v), Decompose has c = %d", name, i, j, c1, ok, d.C())
				}
				ge, gs, shared := ev.splitSums(i, j, u, w, f, 0, ev.maskStride)
				if shared != (d.C() >= 2) || ge != e || gs != s {
					t.Fatalf("%s: pair (%d, %d): splitSums E=%v S=%v shared=%v, decomposition E=%v S=%v over c = %d",
						name, i, j, ge, gs, shared, e, s, d.C())
				}
				if d.C() >= 2 {
					c2++
				}
				if d.SameHead {
					sameHead++
				}
			}
		}
	}
	for trial := 0; trial < 30; trial++ {
		g, sink := multiChainWorkload(t, 700+int64(trial))
		if trial%3 == 1 {
			for i := 0; i < g.NumTasks(); i++ {
				g.Task(model.TaskID(i)).Sem = model.LET
			}
		}
		a, err := New(g)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("waters %d", trial), a, sink)
		bw := backward.NewAnalyzer(g, sched.Analyze(g, sched.NonPreemptiveFP), backward.Duerr)
		check(fmt.Sprintf("waters %d Dürr", trial), NewWithBackward(g, bw), sink)
	}
	rng := rand.New(rand.NewSource(29))
	for layered := 0; layered < 3; layered++ {
		g, err := randgraph.Layered([]int{20, 46, 2}, 2, randgraph.DefaultConfig(), rng)
		if err != nil {
			t.Fatal(err)
		}
		waters.PopulateBudget(g, rng, 20*timeu.Millisecond, 0.5)
		a, err := New(g)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("layered %d", layered), a, g.Sinks()[0])
	}
	if c2 == 0 || sameHead == 0 || multiWord == 0 {
		t.Fatalf("vacuous corpus: %d c ≥ 2 pairs, %d same-head pairs, %d multi-word indexes", c2, sameHead, multiWord)
	}
}

// TestSDiffPruneUBCoversRecursion checks the closed form against the
// recursion it replaces, on synthetic segment bounds that no graph
// needs to realize: random c, periods, e(o_k) ≥ 0 and segment bounds
// 𝒲/ℬ(A_k), 𝒲/ℬ(B_k), the stripped chains' bounds assembled by the
// split identity. Theorem 2's value after the ceiling/floor recursion
// never exceeds sdiffUB, and sdiffUB never exceeds crossUB over any
// intervals holding a and b with split sums at most E⁺ and S⁺ — the
// interval arithmetic behind the pair, row and block bounds, exercised
// where graph-shaped inputs rarely reach it (windows narrower than the
// rounding slack).
func TestSDiffPruneUBCoversRecursion(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	span := func(n int64) timeu.Time { return timeu.Time(rng.Int63n(2*n+1) - n) }
	for trial := 0; trial < 200000; trial++ {
		c := 2 + rng.Intn(4)
		period := make([]timeu.Time, c+1) // period[k] = T(o_k), 1-based
		for k := 1; k <= c; k++ {
			period[k] = timeu.Time(1 + rng.Int63n(1000))
		}
		var wA, bA, wB, bB [6]timeu.Time
		for k := 0; k < c; k++ {
			wA[k], bA[k], wB[k], bB[k] = span(3000), span(3000), span(3000), span(3000)
		}
		var e, s timeu.Time
		for k := 1; k < c; k++ {
			e += timeu.Time(rng.Int63n(500))
			s += period[k] - 1
		}
		x, y := int64(0), int64(0)
		for k := c - 1; k >= 1; k-- {
			x = timeu.CeilDiv(bA[k]-wB[k]+timeu.Time(x)*period[k+1], period[k])
			y = timeu.FloorDiv(wA[k]-bB[k]+timeu.Time(y)*period[k+1], period[k])
		}
		value := max(timeu.Abs(wB[0]-bA[0]-timeu.Time(x)*period[1]), timeu.Abs(bB[0]-wA[0]-timeu.Time(y)*period[1]))
		var wl, bl, wn, bn timeu.Time
		for k := 0; k < c; k++ {
			wl, bl, wn, bn = wl+wA[k], bl+bA[k], wn+wB[k], bn+bB[k]
		}
		bl, bn = bl+e, bn+e // ℬ(x..y) = ℬ(x..t) + ℬ(t..y) + e(t)
		a, b := wn-bl, bn-wl
		ub := sdiffUB(a, b, e, s)
		if value > ub {
			t.Fatalf("trial %d (c=%d): recursion value %v above U %v (a=%v b=%v E=%v S=%v)", trial, c, value, ub, a, b, e, s)
		}
		aLo, bLo := a-timeu.Time(rng.Int63n(100)), b-timeu.Time(rng.Int63n(100))
		aHi, bHi := a+timeu.Time(rng.Int63n(100)), b+timeu.Time(rng.Int63n(100))
		eMax, sMax := e+timeu.Time(rng.Int63n(100)), s+timeu.Time(rng.Int63n(100))
		if cub := crossUB(aLo, aHi, bLo, bHi, eMax, sMax); ub > cub {
			t.Fatalf("trial %d: U %v above crossUB %v", trial, ub, cub)
		}
	}
}
