// Subtree-level pair pruning: the hierarchical branch-and-bound
// descent that DisparityBound runs over the pair space.
//
// The trie groups chains by shared prefix, and backward.SubtreeAggs
// gives every trie node the min/max envelope of its leaves' segment
// keys. For two disjoint sibling subtrees hanging off a join node f,
// every cross pair diverges exactly at f, so combining the two
// envelopes bounds every pair of the leaf-range × leaf-range block in
// one interval comparison. The descent below expands the pair space
// into O(NumPairs/subtreeRectCap) such blocks, orders them by
// optimistic bound, and lets the CAS-lifted running maximum skip whole
// blocks before a single pair in them is enumerated. Inside a
// surviving block, rows and then pairs face the same test with tighter
// bounds, and the pairs that survive it go through the exact per-pair
// evaluation, so the result — bound, argmax pair, every intermediate —
// stays bit-identical to DisparityReference (pinned by the
// differential harnesses).
//
// Soundness of skipping: a block, row or pair bound dominates each
// member pair's pre-flooring value (flooring only rounds down), the
// threshold is the maximum of already-evaluated final pair bounds and
// therefore never exceeds the final maximum, and the skip test is
// strict (<). A skipped pair's bound is thus strictly below the final
// maximum: it can attain neither the maximum nor the first-attaining
// rank.
//
// P-diff pairs combine full-chain windows, so their block bound is the
// Theorem-1 envelope combination completed at the root. S-diff pairs
// evaluate the stripped chains λ = u..f and ν = w..f, and a pair that
// shares tasks below f runs Theorem 2's alignment recursion, bounded
// in closed form without running it:
//
//   - Setup. The common tasks are o₁…o_c with o_c = f, c ≥ 2 (a shared
//     head is not a common task). The segments are A₀ = u..o₁ and
//     A_k = o_k..o_{k+1} on λ, B_k likewise on ν. The recursion's
//     ceiling gives x_k·T(o_k) ∈ [N_k, N_k + T(o_k) − 1] with
//     N_k = ℬ(A_k) − 𝒲(B_k) + x_{k+1}·T(o_{k+1}), and its floor gives
//     y_k·T(o_k) ∈ [M_k − T(o_k) + 1, M_k] with
//     M_k = 𝒲(A_k) − ℬ(B_k) + y_{k+1}·T(o_{k+1}); x_c = y_c = 0.
//   - Splitting. 𝒲 is a prefix sum and splits exactly at a node. ℬ
//     splits as ℬ(x..y) = ℬ(x..t) + ℬ(t..y) + e(t), with e(t) from
//     backward.TrieBounds.SplitExcess. Every split point o₁…o_{c−1} is
//     scheduled — Validate lets only sources be unscheduled, and a
//     source on a path is its head — and e(t) ≥ 0.
//   - Summing the steps. With a = 𝒲(ν) − ℬ(λ) and b = ℬ(ν) − 𝒲(λ)
//     (Theorem 1's two terms on the stripped pair),
//     E = Σ_{k<c} e(o_k) and S = Σ_{k<c} (T(o_k) − 1):
//     𝒲(B₀) − ℬ(A₀) − x₁T(o₁) ∈ [a+E−S, a+E] and
//     ℬ(B₀) − 𝒲(A₀) − y₁T(o₁) ∈ [b−E, b−E+S].
//   - Per pair. U = max(|a|, |b|, |a+E|, |a+E−S|, |b−E|, |b−E+S|)
//     (sdiffUB) bounds the pre-flooring value: the four interval ends
//     bound Theorem 2's two terms, and |a|, |b| cover the c = 1 case
//     (E = S = 0) and the sporadic fallbacks, which evaluate Theorem 1
//     on the stripped pair. E and S come from the bits of
//     masks[u] & masks[w] &^ masks[f], a shared head cleared
//     (splitSums).
//   - Per block and per row. For a block P × Q at f, a and b range
//     over the envelopes at f (the LET hull included), and E ≤ E⁺,
//     S ≤ S⁺, the sums over the tasks of (∪P ∧ ∪Q) ∖ path(f) read off
//     the subtree union masks (every term is ≥ 0). As E, S ≥ 0, each
//     |·| of U is at most one of a_hi+E⁺, S⁺−a_lo, E⁺−b_lo, b_hi+S⁺,
//     and their maximum is the block bound (crossUB). A row is the
//     block {λ} × Q: the same maximum with λ's exact 𝒲/ℬ, the exact
//     extremes over Q's leaves, and the sums over
//     (path(λ) ∧ ∪Q) ∖ path(f), so pair U ≤ row bound ≤ block bound.
//     When an intersection is empty every pair of the block or row is
//     c = 1 with distinct heads, E⁺ = S⁺ = 0, the bound is the plain
//     Theorem-1 combination, and the pairs skip the mask work and
//     evaluate on the direct c = 1 path.
//
// A pruned pair never runs the recursion, so it never reaches the
// infeasible-alignment guard (x_k > y_k) either. For sound 𝒲/ℬ the
// guard is unreachable — the real backward job chains give a feasible
// alignment — so DisparityBound can report it only on pairs it
// evaluates, while Disparity and DisparityReference evaluate every
// pair. An index without masks (over MaskBudgetWords) gives S-diff
// blocks the +∞ sentinel, and their pairs are evaluated unpruned.
package core

import (
	"cmp"
	"context"
	"math"
	"runtime"
	"slices"
	"sync/atomic"

	"repro/internal/backward"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/timeu"
)

var (
	// pairsSubtreePruned counts chain pairs skipped wholesale by the
	// subtree descent — pairs inside a block whose optimistic bound
	// could not reach the running maximum. Disjoint from
	// core.pairs.pruned (the row and pair prunes inside surviving
	// blocks) and core.pairs.bounded (evaluated pairs); the three sum
	// to the pair count of every bound-only run.
	pairsSubtreePruned = metrics.C("core.pairs.subtree_pruned")
	// blocksPruned counts whole subtree-pair blocks skipped.
	blocksPruned = metrics.C("core.blocks.pruned")
)

// subtreeRectCap caps the pair count of one block emitted by the
// subtree descent. Smaller blocks prune at a finer grain but cost more
// envelope evaluations; this cap keeps block metadata negligible (tens
// of bytes per ~1k pairs) while fleet-scale tries still collapse to a
// few dozen blocks.
const subtreeRectCap = 1024

// triangleLeaves caps the leaves of one triangle block (at most 120
// pairs). A triangle's pairs join at varying nodes, so it has no
// optimistic bound and each pair pays its own LCA and two segment
// bounds, where a cross block reads its Q side's bounds once. A
// subtree with more leaves splits into cross blocks between its
// children. Larger triangles (up to the 45 leaves subtreeRectCap
// admits) cost the fusion-dense descent more than the blocks they
// save, and no triangles at all cost more in dispatch; DESIGN.md §
// Subtree-level pair pruning has the measurements.
const triangleLeaves = 16

// ubSentinel marks a block whose optimistic bound is unavailable
// (triangles, whose pairs join at varying nodes, and S-diff blocks of
// an index without masks): it is never skipped, only enumerated, and
// sorts ahead of every bounded block.
const ubSentinel = timeu.Time(math.MaxInt64)

// maxTies caps the tied ranks a descent keeps: the smallest maxTies
// ranks of the pairs attaining its maximum. The greedy optimizer reads
// them to decide a round without a descent; a dropped tie only costs
// that round its descent.
const maxTies = 32

// noCutoff is the cutoff of a descent that runs to the end: pair
// bounds are never negative, so only a cutoff ≥ 0 can stop a descent.
const noCutoff = timeu.Time(-1)

// pairRect is one block of the pair space: the cross product
// [pLo, pHi) × [qLo, qHi) of chain indices diverging exactly at trie
// node f, or — when qLo < 0 — the triangle of all pairs inside
// [pLo, pHi), at most triangleLeaves chains (join nodes vary;
// evaluated, never skipped).
type pairRect struct {
	pLo, pHi int32
	qLo, qHi int32
	f        int32
	// wLo, wHi span the mask words in which the two runs' union masks
	// meet strictly below f (S-diff only), so every pair's common tasks
	// lie in them. wLo = wHi: every pair of the block is c = 1 with
	// distinct heads.
	wLo, wHi int32
	// idx is the block's emission index, the sort's tie-break. It sits
	// in the padding before ub, so a block stays 40 bytes.
	idx int32
	ub  timeu.Time
}

// pairsFrom counts the block's pairs in rows i and after;
// pairsFrom(pLo) is its pair count.
func (r *pairRect) pairsFrom(i int) int64 {
	k := int64(int(r.pHi) - i)
	if r.qLo < 0 {
		return k * (k - 1) / 2
	}
	return k * int64(r.qHi-r.qLo)
}

// rectCollector expands the pair space into rects during the descent.
type rectCollector struct {
	ev        *pairEval
	m         Method
	cap       int64
	aggs      []backward.SubtreeAgg
	hasLET    bool
	sub       []uint64 // subtree union masks (nil: no S-diff block bounds)
	subStride int
	rects     []pairRect
}

// collectRects runs the descent from the root and returns every block,
// none holding more than cap ≥ 1 pairs.
func (ev *pairEval) collectRects(m Method, cap int) []pairRect {
	c := &rectCollector{ev: ev, m: m, cap: int64(cap)}
	c.aggs, c.hasLET = ev.tb.SubtreeAggs()
	if m == SDiff {
		c.sub, c.subStride = ev.idx.SubtreeMasks()
	}
	c.within(0)
	for i := range c.rects {
		c.rects[i].idx = int32(i)
	}
	return c.rects
}

// nonEmpty filters a child list down to children whose subtrees hold
// leaves (truncated construction can leave empty ones; their sentinel
// envelopes must never be folded). The common full-index case returns
// the CSR slice unchanged.
func (c *rectCollector) nonEmpty(kids []int32) []int32 {
	for i, k := range kids {
		if lo, hi := c.ev.idx.LeafSpan(k); lo >= hi {
			out := make([]int32, i, len(kids))
			copy(out, kids[:i])
			for _, k := range kids[i+1:] {
				if lo, hi := c.ev.idx.LeafSpan(k); lo < hi {
					out = append(out, k)
				}
			}
			return out
		}
	}
	return kids
}

// within emits blocks covering every pair whose two chains both lie in
// x's subtree: a single triangle when the subtree has at most
// triangleLeaves leaves and its pairs fit the cap, otherwise cross
// blocks between x's child subtrees (divergence node x) plus recursion
// into each child.
func (c *rectCollector) within(x int32) {
	idx := c.ev.idx
	for {
		lo, hi := idx.LeafSpan(x)
		span := int64(hi - lo)
		if span < 2 {
			return
		}
		if span <= triangleLeaves && span*(span-1)/2 <= c.cap {
			c.rects = append(c.rects, pairRect{pLo: lo, pHi: hi, qLo: -1, qHi: -1, f: x, ub: ubSentinel})
			return
		}
		kids := c.nonEmpty(idx.Children(x))
		if len(kids) == 1 {
			x = kids[0] // chain down: no pairs diverge here
			continue
		}
		c.run(x, kids)
		for _, k := range kids {
			c.within(k)
		}
		return
	}
}

// run emits the cross blocks between distinct members of a sibling run
// by binary splitting — O(k log k) blocks for fanout k instead of the
// O(k²) of enumerating child pairs, which matters at fleet fanouts.
// Every pair crossing the halves diverges at f; pairs inside a half
// recurse.
func (c *rectCollector) run(f int32, kids []int32) {
	if len(kids) < 2 {
		return
	}
	mid := len(kids) / 2
	c.cross(f, kids[:mid], kids[mid:])
	c.run(f, kids[:mid])
	c.run(f, kids[mid:])
}

// expand replaces a single-node run by that node's children (chaining
// down single-child paths), preserving the leaf range and — because
// the replaced node is only one side of a cross — the divergence node.
func (c *rectCollector) expand(x int32) []int32 {
	for {
		kids := c.nonEmpty(c.ev.idx.Children(x))
		if len(kids) == 1 {
			x = kids[0]
			continue
		}
		return kids
	}
}

// cross emits blocks covering P-leaves × Q-leaves, all diverging at f.
// Both runs are contiguous in preorder with P before Q, so the leaf
// ranges are contiguous and every emitted pair (i, j) has i < j.
func (c *rectCollector) cross(f int32, P, Q []int32) {
	idx := c.ev.idx
	pLo, _ := idx.LeafSpan(P[0])
	_, pHi := idx.LeafSpan(P[len(P)-1])
	qLo, _ := idx.LeafSpan(Q[0])
	_, qHi := idx.LeafSpan(Q[len(Q)-1])
	pn, qn := int64(pHi-pLo), int64(qHi-qLo)
	if pn*qn <= c.cap {
		c.emitCross(f, pLo, pHi, qLo, qHi, P, Q)
		return
	}
	// Split the side with more leaves: halve multi-node runs, expand a
	// single node into its children. A side with ≥ 2 leaves always
	// splits, and the larger side of an over-cap block has ≥ 2.
	if pn >= qn {
		a, b := splitRun(c, P)
		c.cross(f, a, Q)
		c.cross(f, b, Q)
	} else {
		a, b := splitRun(c, Q)
		c.cross(f, P, a)
		c.cross(f, P, b)
	}
}

func splitRun(c *rectCollector, run []int32) (a, b []int32) {
	if len(run) >= 2 {
		mid := len(run) / 2
		return run[:mid], run[mid:]
	}
	kids := c.expand(run[0])
	mid := len(kids) / 2
	return kids[:mid], kids[mid:]
}

// emitCross computes the block's optimistic bound: the Theorem-1
// envelope combination completed at the root for P-diff, the
// closed-form S-diff bound at the divergence node f otherwise (see the
// package comment), unless the index built no masks.
func (c *rectCollector) emitCross(f int32, pLo, pHi, qLo, qHi int32, P, Q []int32) {
	r := pairRect{pLo: pLo, pHi: pHi, qLo: qLo, qHi: qHi, f: f, ub: ubSentinel}
	if c.m == PDiff {
		r.ub = c.blockUB(0, P, Q, 0, 0)
	} else if c.subStride != 0 {
		// E⁺ and S⁺ sum over every task the runs share outside the join
		// path f..root: each cross pair's common tasks below f, and a
		// shared source head (no task on f..root is a source).
		mf := c.ev.maskRow(f)
		var e, s timeu.Time
		for k := 0; k < c.subStride; k++ {
			orP := c.union(P, k)
			if orP == 0 {
				continue
			}
			if common := orP & c.union(Q, k) &^ mf[k]; common != 0 {
				we, ws := c.ev.wordSums(k, common)
				e, s = e+we, s+ws
				if r.wLo == r.wHi {
					r.wLo = int32(k)
				}
				r.wHi = int32(k + 1)
			}
		}
		r.ub = c.blockUB(f, P, Q, e, s)
	}
	c.rects = append(c.rects, r)
}

// union returns word k of the OR of the run's subtree union masks.
func (c *rectCollector) union(run []int32, k int) uint64 {
	var or uint64
	for _, x := range run {
		or |= c.sub[int(x)*c.subStride+k]
	}
	return or
}

// foldRun folds the envelopes of a run's nodes (all non-empty).
func (c *rectCollector) foldRun(run []int32) backward.SubtreeAgg {
	agg := c.aggs[run[0]]
	for _, x := range run[1:] {
		agg.Fold(&c.aggs[x])
	}
	return agg
}

// blockUB bounds every cross pair of the two runs at join node f from
// their envelopes: with λ from P and ν from Q, Theorem 1's terms
// a = 𝒲ν − ℬλ and b = ℬν − 𝒲λ lie in [minWQ−maxBP, maxWQ−minBP] and
// [minBQ−maxWP, maxBQ−minWP], and e, s are the split sums E⁺, S⁺ (zero
// for P-diff).
func (c *rectCollector) blockUB(f int32, P, Q []int32, e, s timeu.Time) timeu.Time {
	wOff, bOff, bletOff := c.ev.tb.BlockOffsets(f)
	ap, aq := c.foldRun(P), c.foldRun(Q)
	minWP, maxWP := ap.MinW+wOff, ap.MaxW+wOff
	minWQ, maxWQ := aq.MinW+wOff, aq.MaxW+wOff
	minBP, maxBP := hullB(&ap, bOff, bletOff, c.hasLET)
	minBQ, maxBQ := hullB(&aq, bOff, bletOff, c.hasLET)
	return crossUB(minWQ-maxBP, maxWQ-minBP, minBQ-maxWP, maxBQ-minWP, e, s)
}

// crossUB is max(aHi+e, s−aLo, e−bLo, bHi+s), clamped at 0. For
// a ∈ [aLo, aHi], b ∈ [bLo, bHi], 0 ≤ E ≤ e and 0 ≤ S ≤ s it dominates
// sdiffUB(a, b, E, S); with e = s = 0 it is the Theorem-1 combination
// max(|a|, |b|) over the intervals.
func crossUB(aLo, aHi, bLo, bHi, e, s timeu.Time) timeu.Time {
	return max(aHi+e, s-aLo, e-bLo, bHi+s, 0)
}

// hullB brackets a run's ℬ values. Which segBCBT branch applies is per
// leaf (the LET branch needs a scheduled task on leaf..f), so when the
// graph holds LET tasks at all the hull of both candidate intervals is
// taken — each leaf's true ℬ is one of the two candidates, so the hull
// contains it.
func hullB(a *backward.SubtreeAgg, bOff, bletOff timeu.Time, hasLET bool) (lo, hi timeu.Time) {
	lo, hi = a.MinB+bOff, a.MaxB+bOff
	if hasLET {
		lo = timeu.Min(lo, a.MinBLET+bletOff)
		hi = timeu.Max(hi, a.MaxBLET+bletOff)
	}
	return lo, hi
}

// pairRank maps pair (i, j), i < j, to its row-major rank — the order
// forEachPair visits pairs in, and Disparity's Pairs index. The
// cross-rect reduction merges by (bound desc, rank asc), reproducing
// the row-major first-attaining argmax no matter how blocks interleave.
func pairRank(n, i, j int) int {
	return i*(n-1) - i*(i-1)/2 + j - i - 1
}

// descent is the state one boundSubtree call shares among its blocks.
// It belongs to the call, not to pairEval, whose tables concurrent
// analyses share.
type descent struct {
	// threshold is the running maximum of taken pair bounds.
	threshold atomic.Int64
	// cutoff, unless noCutoff, stops the descent: the first taken pair
	// bound ≥ cutoff sets cut.
	cutoff timeu.Time
	cut    atomic.Bool
}

// descentBest is a descent's result: the maximum bound, the first rank
// attaining it, and the smallest maxTies ranks attaining it, rank
// first.
type descentBest struct {
	bound timeu.Time
	rank  int
	ties  []int
	err   error
}

// boundSubtree runs DisparityBound's branch and bound over the n
// chains: collect blocks of at most cap pairs, order them most-promising
// first (so the threshold rises early and later blocks die on one
// comparison), evaluate the first block serially to seed the threshold,
// then the rest serially or, when parallel, on all CPUs. Each worker
// reduces the blocks it evaluates into its own rectScratch, and the
// workers' results merge once at the end by (bound desc, rank asc),
// which keeps the result independent of evaluation order.
//
// The tied ranks are exact for the same reason the argmax is: a pair
// attaining the maximum is never pruned, because every block, row and
// pair skip tests strictly below a threshold that never exceeds the
// maximum. So serial and parallel descents keep the same ties.
//
// A descent that takes a pair bound ≥ cutoff stops early: blocks not
// yet started are skipped and running blocks stop at their next row,
// the skipped pairs counted as subtree-pruned and pruned. Its result
// is then only some bound ≥ cutoff, which is all a caller asking "does
// any pair reach the cutoff?" needs, and its ties mean nothing. A
// descent that never reaches the cutoff, and every descent with
// noCutoff, returns the exact maximum, its first-attaining rank and
// its ties.
func (ev *pairEval) boundSubtree(m Method, n, cap int, parallel bool, cutoff timeu.Time) descentBest {
	rects := ev.collectRects(m, cap)
	slices.SortFunc(rects, func(a, b pairRect) int {
		if c := cmp.Compare(b.ub, a.ub); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	d := &descent{cutoff: cutoff}
	workers := 1
	if parallel {
		workers = runtime.GOMAXPROCS(0)
	}
	scratch := make([]rectScratch, workers)
	ev.evalRect(m, n, &rects[0], d, &scratch[0])
	if rest := len(rects) - 1; rest > 0 && parallel {
		boundParallelRuns.Inc()
		_ = par.Runner{Workers: workers}.RunIndexed(context.Background(), rest,
			func(_ context.Context, worker, b int) error {
				ev.evalRect(m, n, &rects[b+1], d, &scratch[worker])
				return nil
			})
	} else {
		for b := 1; b < len(rects); b++ {
			ev.evalRect(m, n, &rects[b], d, &scratch[0])
		}
	}
	return mergeWorkers(scratch)
}

// mergeWorkers flushes every worker's pair counters and reduces their
// results: the highest bound, and the smallest maxTies of the ranks
// attaining it across workers. An error, the first in worker order,
// replaces the result.
func mergeWorkers(scratch []rectScratch) descentBest {
	best := descentBest{rank: -1}
	var err error
	for i := range scratch {
		sc := &scratch[i]
		pairsBounded.Add(sc.evaluated)
		pairsPruned.Add(sc.pruned)
		pairsSubtreePruned.Add(sc.subtreePruned)
		blocksPruned.Add(sc.blocksPruned)
		if err == nil {
			err = sc.err
		}
		switch {
		case sc.nTies == 0:
		case best.ties == nil || sc.bound > best.bound:
			best.bound = sc.bound
			best.ties = append(best.ties[:0], sc.ties[:sc.nTies]...)
		case sc.bound == best.bound:
			best.ties = append(best.ties, sc.ties[:sc.nTies]...)
		}
	}
	if err != nil {
		return descentBest{rank: -1, err: err}
	}
	if best.ties != nil {
		slices.Sort(best.ties)
		best.ties = best.ties[:min(len(best.ties), maxTies)]
		best.rank = best.ties[0]
	}
	return best
}

// rectScratch is one worker's state, reused across the blocks it
// evaluates: the decomposition walk's tables, the S-diff cross loop's
// per-leaf bounds at the join node and union of path masks, and the
// worker's share of the descent's result — its best bound, the
// smallest ranks attaining it, its pair counters and its first error —
// flushed once per descent by mergeWorkers.
type rectScratch struct {
	pair   pairScratch
	wq, bq []timeu.Time
	orQ    []uint64

	bound timeu.Time
	// ties[:nTies] are the smallest ranks attaining bound, ascending,
	// so ties[0] is the worker's first-attaining rank.
	ties  [maxTies]int
	nTies int

	evaluated, pruned, subtreePruned, blocksPruned int64
	err                                            error
	// The pad keeps adjacent workers' hot fields off one cache line.
	_ [64]byte
}

// take folds one evaluated pair into the worker's result: a bound
// above the worker's best restarts the ties at rank, an equal one
// joins them.
func (sc *rectScratch) take(bound timeu.Time, rank int) {
	switch {
	case sc.nTies == 0 || bound > sc.bound:
		sc.bound = bound
		sc.ties[0], sc.nTies = rank, 1
	case bound == sc.bound:
		sc.tie(rank)
	}
}

// tie inserts rank into the sorted ties, dropping the largest once
// maxTies are kept. A block visits its pairs in ascending rank, so the
// insertion is usually an append.
func (sc *rectScratch) tie(rank int) {
	k := sc.nTies
	if k == maxTies {
		if rank > sc.ties[k-1] {
			return
		}
		k--
	} else {
		sc.nTies++
	}
	for ; k > 0 && sc.ties[k-1] > rank; k-- {
		sc.ties[k] = sc.ties[k-1]
	}
	sc.ties[k] = rank
}

// leafEnv describes the Q leaves of an S-diff cross block at its join
// node: the exact extremes of their 𝒲 and ℬ, and the union of their
// path masks in the block's shared words [lo, hi).
type leafEnv struct {
	minW, maxW, minB, maxB timeu.Time
	union                  []uint64
	lo, hi                 int
}

// leafBounds fills sc.wq and sc.bq with 𝒲 and ℬ of the segments
// leaf..f of the block's Q chains, indexed from qLo, and returns their
// leafEnv.
func (ev *pairEval) leafBounds(r *pairRect, sc *rectScratch) leafEnv {
	k := int(r.qHi - r.qLo)
	if cap(sc.wq) < k {
		sc.wq, sc.bq = make([]timeu.Time, k), make([]timeu.Time, k)
	}
	sc.wq, sc.bq = sc.wq[:k], sc.bq[:k]
	env := leafEnv{minW: math.MaxInt64, maxW: math.MinInt64, minB: math.MaxInt64, maxB: math.MinInt64}
	for j := range sc.wq {
		w, b := ev.tb.Bounds(ev.idx.Leaf(int(r.qLo)+j), r.f)
		sc.wq[j], sc.bq[j] = w, b
		env.minW, env.maxW = min(env.minW, w), max(env.maxW, w)
		env.minB, env.maxB = min(env.minB, b), max(env.maxB, b)
	}
	if r.wLo < r.wHi {
		if cap(sc.orQ) < ev.maskStride {
			sc.orQ = make([]uint64, ev.maskStride)
		}
		env.union, env.lo, env.hi = sc.orQ[:ev.maskStride], int(r.wLo), int(r.wHi)
		clear(env.union[env.lo:env.hi])
		for j := r.qLo; j < r.qHi; j++ {
			row := ev.maskRow(ev.idx.Leaf(int(j)))
			for k := env.lo; k < env.hi; k++ {
				env.union[k] |= row[k]
			}
		}
	}
	return env
}

// rowUB bounds U over one row of an S-diff cross block, the block
// {λ} × Q: λ's exact 𝒲 = wl and ℬ = bl (leaf u) against the extremes of
// the Q leaves, with the split sums over the tasks λ's path shares with
// their union strictly below f. shared reports whether there is one;
// without it every pair of the row is c = 1 with distinct heads.
func (ev *pairEval) rowUB(env *leafEnv, u, f int32, wl, bl timeu.Time) (ub timeu.Time, shared bool) {
	var e, s timeu.Time
	if env.lo < env.hi {
		e, s, shared = ev.commonSums(ev.maskRow(u), env.union, ev.maskRow(f), env.lo, env.hi, -1)
	}
	return crossUB(env.minW-bl, env.maxW-bl, env.minB-wl, env.maxB-wl, e, s), shared
}

// evalRect evaluates one block into the worker's scratch: skip it
// outright when the descent was cut or its optimistic bound cannot
// reach the threshold, otherwise enumerate its pairs with the per-pair
// dominance prune, stopping at the first row that starts after a cut.
// S-diff cross blocks test each row's bound before its pairs and each
// pair's U before evaluating it; pairs sharing nothing below f take the
// direct c = 1 path, the rest the generic evaluation. An evaluation
// error stops the block and is kept in sc.err if it is the worker's
// first.
func (ev *pairEval) evalRect(m Method, n int, r *pairRect, d *descent, sc *rectScratch) {
	threshold := &d.threshold
	if d.cut.Load() || (r.ub != ubSentinel && r.ub < timeu.Time(threshold.Load())) {
		sc.subtreePruned += r.pairsFrom(int(r.pLo))
		sc.blocksPruned++
		return
	}
	var v pairVals
	var evaluated, prunedCount int64
	defer func() {
		sc.evaluated += evaluated
		sc.pruned += prunedCount
	}()
	fail := func(err error) {
		if sc.err == nil {
			sc.err = err
		}
	}
	take := func(rank int) {
		evaluated++
		sc.take(v.bound, rank)
		for {
			cur := threshold.Load()
			if int64(v.bound) <= cur || threshold.CompareAndSwap(cur, int64(v.bound)) {
				break
			}
		}
		if d.cutoff >= 0 && v.bound >= d.cutoff {
			d.cut.Store(true)
		}
	}
	if r.qLo < 0 { // triangle
		for i := int(r.pLo); i < int(r.pHi); i++ {
			if d.cut.Load() {
				prunedCount += r.pairsFrom(i)
				break
			}
			for j := i + 1; j < int(r.pHi); j++ {
				ok, err := ev.evalPair(m, i, j, &sc.pair, &v, threshold)
				if err != nil {
					fail(err)
					return
				}
				if !ok {
					prunedCount++
					continue
				}
				take(pairRank(n, i, j))
			}
		}
		return
	}
	if m == SDiff && ev.maskStride != 0 {
		idx := ev.idx
		f, fDepth := r.f, idx.NodeDepth(r.f)
		env := ev.leafBounds(r, sc)
		for i := int(r.pLo); i < int(r.pHi); i++ {
			if d.cut.Load() {
				prunedCount += r.pairsFrom(i)
				break
			}
			u := idx.Leaf(i)
			wl, bl := ev.tb.Bounds(u, f)
			rowBound, rowShared := ev.rowUB(&env, u, f, wl, bl)
			if rowBound < timeu.Time(threshold.Load()) {
				prunedCount += int64(r.qHi - r.qLo)
				continue
			}
			laLen := int(idx.NodeDepth(u) - fDepth + 1)
			for j := int(r.qLo); j < int(r.qHi); j++ {
				w := idx.Leaf(j)
				var e, s timeu.Time
				shared, sameHead := false, false
				if rowShared {
					sameHead = ev.headTask[i] == ev.headTask[j]
					e, s, shared = ev.splitSums(i, j, u, w, f, env.lo, env.hi)
				}
				k := j - int(r.qLo)
				if sdiffUB(sc.wq[k]-bl, sc.bq[k]-wl, e, s) < timeu.Time(threshold.Load()) {
					prunedCount++
					continue
				}
				if shared {
					if err := ev.evalSDiff(i, j, &sc.pair, &v); err != nil {
						fail(err)
						return
					}
				} else {
					ev.sdiffC1(u, w, f, i, laLen, int(idx.NodeDepth(w)-fDepth+1), sameHead, &v)
				}
				take(pairRank(n, i, j))
			}
		}
		return
	}
	for i := int(r.pLo); i < int(r.pHi); i++ {
		if d.cut.Load() {
			prunedCount += r.pairsFrom(i)
			break
		}
		for j := int(r.qLo); j < int(r.qHi); j++ {
			ok, err := ev.evalPair(m, i, j, &sc.pair, &v, threshold)
			if err != nil {
				fail(err)
				return
			}
			if !ok {
				prunedCount++
				continue
			}
			take(pairRank(n, i, j))
		}
	}
}
