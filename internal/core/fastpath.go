// Trie-based fast path of the task-level disparity analysis.
//
// The legacy per-pair pipeline — materialize both chains, strip the
// common suffix, decompose, and re-derive every sub-chain's WCBT/BCBT
// from scratch — repeats work that the chain set shares: all chains to
// one task form a prefix trie (chains.Index), the stripped pair of two
// chains is the pair of leaf→LCA paths, and every sub-chain bound is a
// difference of two per-node prefix sums (backward.TrieBounds). pairEval packages those
// shared tables; evalPDiff/evalSDiff reproduce pairTheorem1 and
// pairTheorem2 on trie segments. All arithmetic is the same exact
// int64 sequence as the legacy path, so the bounds are bit-identical —
// DisparityReference keeps the legacy pipeline alive and the
// differential harness in internal/integration compares the two field
// by field.
package core

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/backward"
	"repro/internal/bitset"
	"repro/internal/chains"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/timeu"
)

var (
	disparityTruncated = metrics.C("core.disparity.truncated")
	// pairsPruned counts chain pairs the dominance prune skipped (their
	// cheap upper bound, or their row's in an S-diff cross block, could
	// not reach the running maximum), the complement of
	// core.pairs.bounded. A descent's workers accumulate both counts
	// locally and add them once per descent, so the hot loop stays free
	// of shared atomics.
	pairsPruned = metrics.C("core.pairs.pruned")
	// boundParallelRuns counts DisparityBound evaluations that crossed
	// parallelPairThreshold and evaluated their blocks on all CPUs.
	boundParallelRuns = metrics.C("core.bound.parallel")
)

// parallelPairThreshold is the number of chain pairs above which
// DisparityBound evaluates the descent's blocks on all CPUs. The
// (bound, rank) merge is order-independent, so the parallel result is
// bit-identical to the serial one; the threshold only trades goroutine
// overhead against pair volume.
const parallelPairThreshold = 1 << 12

// evalKey identifies one pairEval per analyzed task and enumeration
// cap; PDiff and SDiff share the tables.
type evalKey struct {
	task model.TaskID
	max  int
}

// pairEval holds everything the per-pair bound evaluation reads: the
// chain trie, the per-node backward-bound prefix sums, the per-leaf
// full-chain bounds, and per-task attributes. It is immutable after
// build (the lazily built LCA and mask tables are sync.Once-guarded)
// and safe for concurrent use.
type pairEval struct {
	a   *Analysis
	idx *chains.Index
	tb  *backward.TrieBounds
	// store materializes every chain at most once, lazily and shared
	// across retargeted evaluations; stripped chains are prefix slices
	// of the stored ones (StripCommonSuffix keeps the head-side prefix
	// up to the last joint task). Only ForEachPairBound's full-detail
	// loop, which Disparity collects, touches it — the bound-only descent
	// materializes just the winning pair, so fleet-scale bound runs
	// never pay O(chains × length).
	store *chainStore
	// masks is the index's path-mask table over its shared tasks
	// (chains.Index.PathMasks), maskStride words per trie node: one
	// uint64 per node up to 64 shared tasks (all zero when none is
	// shared). maskStride 0 means no masks (table over budget) and the
	// pair loop falls back to the decomposition walk.
	masks      []uint64
	maskStride int
	// Per-leaf bounds of the full chain (root segment) for Theorem 1.
	wFull, bFull []timeu.Time
	// headTask[i] is chain i's source task, headBit[i] its mask bit (−1
	// when the head starts no other chain).
	headTask []model.TaskID
	headBit  []int32
	// period and sporadic are indexed by TaskID.
	period   []timeu.Time
	sporadic []bool
	// bitExcess and bitSlack are indexed by mask bit: e(t), that is
	// tb.SplitExcess(t), and T(t) − 1 of the shared task t, the terms
	// of the S-diff prune's split sums (subtree.go).
	bitExcess, bitSlack []timeu.Time
	// lat is the lazily built reaction-prefix table of the latency
	// metrics (latency.go); it reads the backward analyzer, so retarget
	// never carries it across Analyses.
	latOnce sync.Once
	lat     *latSums
}

// pairEvalFor returns the pairEval for a task and cap, building it on
// first use. The tables are kept on the Analysis because they embed the
// backward analyzer, which differs per Analysis even on a shared graph
// (e.g. the Dürr ablation).
func (a *Analysis) pairEvalFor(task model.TaskID, maxChains int) *pairEval {
	if maxChains <= 0 {
		maxChains = chains.DefaultMaxChains
	}
	key := evalKey{task, maxChains}
	a.evmu.Lock()
	if a.evals == nil {
		a.evals = make(map[evalKey]*pairEval)
	}
	ev, ok := a.evals[key]
	a.evmu.Unlock()
	if ok {
		return ev
	}
	ev = newPairEval(a, task, maxChains)
	a.evmu.Lock()
	if prev, ok := a.evals[key]; ok {
		ev = prev
	} else {
		a.evals[key] = ev
	}
	a.evmu.Unlock()
	return ev
}

// chainStore lazily materializes the trie's chain slice once, shared
// across the greedy optimizer's retargeted evaluations (the trie
// topology is identical, so the chains are too).
type chainStore struct {
	once sync.Once
	cs   []model.Chain
}

func (st *chainStore) chains(idx *chains.Index) []model.Chain {
	st.once.Do(func() { st.cs = idx.Chains() })
	return st.cs
}

func newPairEval(a *Analysis, task model.TaskID, maxChains int) *pairEval {
	// Index and backward prefix sums are built in one streaming pass;
	// the chains themselves stay unmaterialized until a full-detail
	// consumer asks.
	idx, tb := a.bw.IndexBounds(a.g, task, maxChains)
	ev := &pairEval{a: a, idx: idx, tb: tb, store: &chainStore{}}
	ev.masks, ev.maskStride = idx.PathMasks()
	ev.wFull, ev.bFull = fullBounds(idx, tb)
	nt := a.g.NumTasks()
	ev.period = make([]timeu.Time, nt)
	ev.sporadic = make([]bool, nt)
	for t := 0; t < nt; t++ {
		tsk := a.g.Task(model.TaskID(t))
		ev.period[t] = tsk.Period
		ev.sporadic[t] = tsk.Sporadic()
	}
	shared := idx.SharedTasks()
	ev.bitExcess = splitExcess(tb, shared)
	ev.bitSlack = make([]timeu.Time, len(shared))
	for b, t := range shared {
		ev.bitSlack[b] = ev.period[t] - 1
	}
	ev.headTask = make([]model.TaskID, idx.NumChains())
	ev.headBit = make([]int32, idx.NumChains())
	for i := range ev.headTask {
		ev.headTask[i] = idx.NodeTask(idx.Leaf(i))
		ev.headBit[i] = -1
		if b, ok := slices.BinarySearch(shared, ev.headTask[i]); ok {
			ev.headBit[i] = int32(b)
		}
	}
	return ev
}

// splitExcess tabulates tb.SplitExcess over the shared tasks, by mask
// bit.
func splitExcess(tb *backward.TrieBounds, shared []model.TaskID) []timeu.Time {
	e := make([]timeu.Time, len(shared))
	for b, t := range shared {
		e[b] = tb.SplitExcess(t)
	}
	return e
}

// fullBounds returns every leaf's full-chain (root segment) bounds.
func fullBounds(idx *chains.Index, tb *backward.TrieBounds) (w, b []timeu.Time) {
	n := idx.NumChains()
	w, b = make([]timeu.Time, n), make([]timeu.Time, n)
	for i := range w {
		w[i], b[i] = tb.Bounds(idx.Leaf(i), 0)
	}
	return w, b
}

// retarget rebuilds the analysis-dependent tables (backward bounds and
// per-leaf windows) for an Analysis of a clone that differs from ev's
// graph only in buffer capacities — the greedy optimizer's rounds —
// while sharing everything a capacity change cannot touch: the trie,
// chain store, masks, LCA lifting, head tasks and bits, and per-task
// periods. The per-bit e(t) table follows the new analyzer, whose
// method may differ.
func (ev *pairEval) retarget(a *Analysis) *pairEval {
	tb := a.bw.TrieBounds(ev.idx)
	wFull, bFull := fullBounds(ev.idx, tb)
	return &pairEval{
		a: a, idx: ev.idx, tb: tb, store: ev.store,
		masks: ev.masks, maskStride: ev.maskStride,
		wFull: wFull, bFull: bFull, headTask: ev.headTask, headBit: ev.headBit,
		period: ev.period, sporadic: ev.sporadic,
		bitExcess: splitExcess(tb, ev.idx.SharedTasks()), bitSlack: ev.bitSlack,
	}
}

// adoptEval seeds a's pairEval table with an already-built evaluation,
// used by the greedy optimizer to carry the trie topology across
// buffered clones.
func (a *Analysis) adoptEval(task model.TaskID, maxChains int, ev *pairEval) {
	if maxChains <= 0 {
		maxChains = chains.DefaultMaxChains
	}
	a.evmu.Lock()
	if a.evals == nil {
		a.evals = make(map[evalKey]*pairEval)
	}
	if _, ok := a.evals[evalKey{task, maxChains}]; !ok {
		a.evals[evalKey{task, maxChains}] = ev
	}
	a.evmu.Unlock()
}

// pairScratch is per-goroutine scratch for the Theorem-2 decomposition
// walk: an epoch-stamped task→λ-node table plus the common-task node
// lists. The zero value is ready to use.
type pairScratch struct {
	epoch   int64
	laEpoch []int64
	laNode  []int32
	laList  []int32 // λ-side trie node per common task, chain order
	nuList  []int32 // ν-side trie node per common task, chain order
}

func (s *pairScratch) ensure(numTasks int) {
	if len(s.laEpoch) < numTasks {
		s.laEpoch = make([]int64, numTasks)
		s.laNode = make([]int32, numTasks)
	}
}

// pairVals is the scalar result of one pair evaluation; toPairBound
// materializes the full PairBound from it on demand, so the pruned
// bound-only loop allocates nothing per pair.
type pairVals struct {
	bound    timeu.Time
	sameHead bool
	x1, y1   int64
	wl, wn   backward.Window
	// lambdaLen/nuLen are the stripped chain lengths (head-side prefix
	// of the materialized chains); 0 means the full chain (PDiff).
	lambdaLen, nuLen int
}

func (ev *pairEval) toPairBound(la, nu model.Chain, v *pairVals) *PairBound {
	pb := new(PairBound)
	ev.fillPairBound(pb, la, nu, v)
	return pb
}

// fillPairBound writes the materialized PairBound into pb — the
// allocation-free variant the streaming iterator reuses per pair.
func (ev *pairEval) fillPairBound(pb *PairBound, la, nu model.Chain, v *pairVals) {
	if v.lambdaLen > 0 {
		la, nu = la[:v.lambdaLen:v.lambdaLen], nu[:v.nuLen:v.nuLen]
	}
	*pb = PairBound{
		Lambda: la, Nu: nu,
		Bound: v.bound, SameHead: v.sameHead,
		X1: v.x1, Y1: v.y1,
		WindowLambda: v.wl, WindowNu: v.wn,
	}
}

// evalPDiff reproduces pairTheorem1 on the full chains i and j using
// the precomputed per-leaf bounds.
func (ev *pairEval) evalPDiff(i, j int, v *pairVals) {
	wl, bl := ev.wFull[i], ev.bFull[i]
	wn, bn := ev.wFull[j], ev.bFull[j]
	o := timeu.Max(timeu.Abs(wl-bn), timeu.Abs(wn-bl))
	*v = pairVals{
		bound:    o,
		sameHead: ev.headTask[i] == ev.headTask[j],
		wl:       backward.Window{Lo: -wl, Hi: -bl},
		wn:       backward.Window{Lo: -wn, Hi: -bn},
	}
	if v.sameHead && !ev.sporadic[ev.headTask[i]] {
		v.bound = timeu.FloorTo(o, ev.period[ev.headTask[i]])
	}
}

// pdiffUB returns pairTheorem1's pre-flooring value — an upper bound
// on the final pair bound (flooring only rounds down) — in four array
// reads, for the dominance prune.
func (ev *pairEval) pdiffUB(i, j int) timeu.Time {
	return timeu.Max(timeu.Abs(ev.wFull[i]-ev.bFull[j]), timeu.Abs(ev.wFull[j]-ev.bFull[i]))
}

// evalSDiff reproduces StripCommonSuffix + pairTheorem2 (including its
// Theorem-1 fallbacks) on the chain pair (i, j) via trie segments.
func (ev *pairEval) evalSDiff(i, j int, s *pairScratch, v *pairVals) error {
	idx := ev.idx
	u, w := idx.Leaf(i), idx.Leaf(j)
	f := idx.LCA(u, w)
	laLen := int(idx.NodeDepth(u) - idx.NodeDepth(f) + 1)
	nuLen := int(idx.NodeDepth(w) - idx.NodeDepth(f) + 1)
	sameHead := ev.headTask[i] == ev.headTask[j]

	// Fast c = 1 test: with exact path masks, no shared task strictly
	// below the join point means the decomposition degenerates and both
	// pairTheorem2-with-c=1 and the sporadic Theorem-1 fallback reduce
	// to the same window combination (see sdiffC1).
	if c1, ok := ev.maskC1(u, w, f, ev.skipBit(i, sameHead)); ok && c1 {
		ev.sdiffC1(u, w, f, i, laLen, nuLen, sameHead, v)
		return nil
	}

	// Decomposition walk (replicates chains.Decompose on the stripped
	// pair): stamp the λ path's tasks with their trie nodes, then walk
	// the ν path head→tail collecting the shared ones in chain order.
	// The common tasks appear in the same relative order on both DAG
	// paths, so ν order is λ order.
	s.ensure(len(ev.period))
	s.epoch++
	for n := u; ; n = idx.NodeParent(n) {
		t := idx.NodeTask(n)
		s.laEpoch[t] = s.epoch
		s.laNode[t] = n
		if n == f {
			break
		}
	}
	s.laList, s.nuList = s.laList[:0], s.nuList[:0]
	first := true
	sporadicCommon := false
	for n := w; ; n = idx.NodeParent(n) {
		t := idx.NodeTask(n)
		// A shared head is excluded from the common set (it cannot
		// recur later on either path of a DAG).
		if !(first && sameHead) && s.laEpoch[t] == s.epoch {
			s.laList = append(s.laList, s.laNode[t])
			s.nuList = append(s.nuList, n)
			if ev.sporadic[t] {
				sporadicCommon = true
			}
		}
		first = false
		if n == f {
			break
		}
	}
	c := len(s.laList)
	if c == 1 || sporadicCommon || (sameHead && ev.sporadic[ev.headTask[i]]) {
		// c = 1, or Theorem 2's alignment argument is void (sporadic
		// common task / sporadic shared head): both cases evaluate to
		// the Theorem-1 combination of the stripped windows.
		ev.sdiffC1(u, w, f, i, laLen, nuLen, sameHead, v)
		return nil
	}

	// Theorem 2's alignment recursion over the sub-chain segments,
	// tail to head; s.laList[k] / s.nuList[k] are the trie nodes of
	// common task o_{k+1} on the two paths.
	x, y := int64(0), int64(0)
	for k := c - 1; k >= 1; k-- {
		toJ := ev.period[idx.NodeTask(s.laList[k-1])]
		toJ1 := ev.period[idx.NodeTask(s.laList[k])]
		wa, ba := ev.tb.Bounds(s.laList[k-1], s.laList[k])
		wb, bb := ev.tb.Bounds(s.nuList[k-1], s.nuList[k])
		nx := timeu.CeilDiv(ba-wb+timeu.Time(x)*toJ1, toJ)
		ny := timeu.FloorDiv(wa-bb+timeu.Time(y)*toJ1, toJ)
		x, y = nx, ny
		if x > y {
			return fmt.Errorf("core: infeasible alignment x_%d=%d > y_%d=%d", k, x, k, y)
		}
	}
	to1 := ev.period[idx.NodeTask(s.laList[0])]
	wa, ba := ev.tb.Bounds(u, s.laList[0])
	wb, bb := ev.tb.Bounds(w, s.nuList[0])
	o := timeu.Max(
		timeu.Abs(wb-ba-timeu.Time(x)*to1),
		timeu.Abs(bb-wa-timeu.Time(y)*to1),
	)
	*v = pairVals{
		bound: o, sameHead: sameHead, x1: x, y1: y,
		wl:        backward.Window{Lo: -wa, Hi: -ba},
		wn:        backward.Window{Lo: timeu.Time(x)*to1 - wb, Hi: timeu.Time(y)*to1 - bb},
		lambdaLen: laLen, nuLen: nuLen,
	}
	if sameHead {
		v.bound = timeu.FloorTo(o, ev.period[ev.headTask[i]])
	}
	return nil
}

// sdiffC1 evaluates a pair whose stripped chains share only the join
// point (c = 1), or whose alignment argument is void. pairTheorem2
// with c = 1 and its Theorem-1 fallback produce identical values here:
// x₁ = y₁ = 0, the windows are the plain stripped-chain windows, and
// the bound floors exactly when the shared head is strictly periodic.
func (ev *pairEval) sdiffC1(u, w, f int32, i, laLen, nuLen int, sameHead bool, v *pairVals) {
	wa, ba := ev.tb.Bounds(u, f)
	wb, bb := ev.tb.Bounds(w, f)
	o := timeu.Max(timeu.Abs(wa-bb), timeu.Abs(wb-ba))
	*v = pairVals{
		bound: o, sameHead: sameHead,
		wl:        backward.Window{Lo: -wa, Hi: -ba},
		wn:        backward.Window{Lo: -wb, Hi: -bb},
		lambdaLen: laLen, nuLen: nuLen,
	}
	if sameHead && !ev.sporadic[ev.headTask[i]] {
		v.bound = timeu.FloorTo(o, ev.period[ev.headTask[i]])
	}
}

// pairUB returns the closed-form upper bound U on the pre-flooring
// S-diff value of chains i, j (leaves u, w joining at f) for the
// dominance prune; it never runs Theorem 2's recursion. The split sums
// are only taken when the exact-mask test finds a common task below f.
// Requires masks.
func (ev *pairEval) pairUB(i, j int, u, w, f int32) timeu.Time {
	wa, ba := ev.tb.Bounds(u, f)
	wb, bb := ev.tb.Bounds(w, f)
	var e, s timeu.Time
	if c1, _ := ev.maskC1(u, w, f, ev.skipBit(i, ev.headTask[i] == ev.headTask[j])); !c1 {
		e, s, _ = ev.splitSums(i, j, u, w, f, 0, ev.maskStride)
	}
	return sdiffUB(wb-ba, bb-wa, e, s)
}

// sdiffUB is U for a stripped pair (the derivation is in subtree.go's
// package comment): a = 𝒲ν − ℬλ and b = ℬν − 𝒲λ are Theorem 1's two
// terms, and e, s are splitSums of the pair's common tasks. With
// e = s = 0 — a c = 1 pair — it is exactly the Theorem-1 value.
func sdiffUB(a, b, e, s timeu.Time) timeu.Time {
	return max(timeu.Abs(a), timeu.Abs(b), timeu.Abs(a+e), timeu.Abs(a+e-s), timeu.Abs(b-e), timeu.Abs(b-e+s))
}

// splitSums returns E and S of chains i, j (leaves u, w joining at f):
// the common sums of masks[u] & masks[w] &^ masks[f] with a shared
// head's bit cleared, which are the split points o₁…o_{c−1} of
// Theorem 2's recursion. Only mask words [lo, hi) are read, so they
// must hold every such task. shared reports whether there is one.
func (ev *pairEval) splitSums(i, j int, u, w, f int32, lo, hi int) (e, s timeu.Time, shared bool) {
	skip := ev.skipBit(i, ev.headTask[i] == ev.headTask[j])
	return ev.commonSums(ev.maskRow(u), ev.maskRow(w), ev.maskRow(f), lo, hi, skip)
}

// skipBit returns the mask bit the c = 1 test and the split sums clear
// for a pair whose chains start at chain i's head: that head's bit
// when both do (a shared head is not a common task), −1 otherwise.
func (ev *pairEval) skipBit(i int, sameHead bool) int {
	if !sameHead {
		return -1
	}
	return int(ev.headBit[i])
}

// commonSums returns Σ e(t) and Σ (T(t) − 1) over the tasks t of
// x & y &^ f in mask words [lo, hi) other than bit skip (−1: none),
// and whether there is any.
func (ev *pairEval) commonSums(x, y, f []uint64, lo, hi, skip int) (e, s timeu.Time, shared bool) {
	for k := lo; k < hi; k++ {
		common := x[k] & y[k] &^ f[k]
		if skip >= 0 && skip>>6 == k {
			common &^= 1 << (uint(skip) & 63)
		}
		if common != 0 {
			we, ws := ev.wordSums(k, common)
			e, s, shared = e+we, s+ws, true
		}
	}
	return e, s, shared
}

// wordSums sums e(t) and T(t) − 1 over the tasks in word k of a mask
// row, reading both by bit.
func (ev *pairEval) wordSums(k int, word uint64) (e, s timeu.Time) {
	for ; word != 0; word &= word - 1 {
		b := k<<6 | bits.TrailingZeros64(word)
		e += ev.bitExcess[b]
		s += ev.bitSlack[b]
	}
	return e, s
}

// maskRow returns trie node n's path-mask row. Requires masks.
func (ev *pairEval) maskRow(n int32) []uint64 {
	st := ev.maskStride
	return ev.masks[int(n)*st : int(n+1)*st]
}

// maskC1 applies the exact-mask c = 1 test to the stripped pair with
// leaves u, w and join node f: masks[u] & masks[w] &^ masks[f], with
// bit skip (a shared head's, see skipBit) cleared, is empty exactly
// when the pair shares no task strictly below the join point. The
// masks hold only the index's shared tasks, and any task the pair
// shares below the join point is one (see chains.Index.PathMasks);
// with none shared every row is zero and every pair is c = 1. ok is
// false when the index built no masks (table over MaskBudgetWords) —
// the test is then unavailable and callers run the decomposition walk.
// Allocation-free on the single-word (≤ 64 shared tasks) and
// multi-word layouts.
func (ev *pairEval) maskC1(u, w, f int32, skip int) (c1, ok bool) {
	switch s := ev.maskStride; s {
	case 0:
		return false, false
	case 1:
		common := ev.masks[u] & ev.masks[w] &^ ev.masks[f]
		if skip >= 0 {
			common &^= 1 << uint(skip)
		}
		return common == 0, true
	default:
		return !bitset.AndNotAnyExcept(
			ev.masks[int(u)*s:(int(u)+1)*s],
			ev.masks[int(w)*s:(int(w)+1)*s],
			ev.masks[int(f)*s:(int(f)+1)*s],
			skip), true
	}
}

// taskDisparity returns the result header every task-level entry point
// starts from: no pairs yet, the true pair count, and the index's
// truncation, which it also counts.
func (ev *pairEval) taskDisparity(task model.TaskID) *TaskDisparity {
	td := &TaskDisparity{
		Task: task, ArgMax: -1,
		NumPairs:  chains.NumPairs(ev.idx.NumChains()),
		Truncated: ev.idx.Truncated(),
		Cause:     ev.idx.Cause(),
	}
	if td.Truncated {
		disparityTruncated.Inc()
	}
	return td
}

// forEachPair evaluates every chain pair (i < j) in row-major order —
// the legacy enumeration's, and the index order of Disparity's Pairs —
// and hands each to fn, which stops the walk by returning false. v is
// reused across calls. The visited pairs count as bounded once, on
// return.
func (ev *pairEval) forEachPair(m Method, fn func(i, j int, v *pairVals) bool) error {
	n := ev.idx.NumChains()
	var s pairScratch
	var v pairVals
	var visited int64
	defer func() { pairsBounded.Add(visited) }()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			visited++
			if m == PDiff {
				ev.evalPDiff(i, j, &v)
			} else if err := ev.evalSDiff(i, j, &s, &v); err != nil {
				return err
			}
			if !fn(i, j, &v) {
				return nil
			}
		}
	}
	return nil
}

// pairAt maps a row-major pair rank back to its (i, j) indices.
func pairAt(n, rank int) (int, int) {
	i := 0
	rowStart := 0
	for {
		rowLen := n - 1 - i
		if rank < rowStart+rowLen {
			return i, i + 1 + rank - rowStart
		}
		rowStart += rowLen
		i++
	}
}

// DisparityBound bounds the worst-case time disparity of the task like
// Disparity, but materializes only the argmax pair: Pairs is either
// empty (fewer than two chains) or the single worst PairBound, with
// ArgMax 0 and NumPairs the true pair count. The Bound and the worst
// pair are bit-identical to Disparity's Bound and Pairs[ArgMax] — the
// differential harness enforces it — while the search runs the
// branch-and-bound descent of subtree.go: whole subtree-pair blocks
// whose optimistic bound cannot reach the running maximum are skipped,
// surviving blocks apply a sound per-pair dominance prune (a pair whose
// cheap upper bound is below the running maximum cannot change the
// result), and above parallelPairThreshold pairs the blocks run on all
// CPUs with a deterministic (bound, rank) reduction.
func (a *Analysis) DisparityBound(task model.TaskID, m Method, maxChains int) (*TaskDisparity, error) {
	return a.disparityBound(task, m, maxChains, noCutoff)
}

// disparityBound is DisparityBound with a descent cutoff (boundSubtree):
// once a pair's bound reaches cutoff the search stops, and Bound is
// then only known to be ≥ cutoff. With noCutoff, or when no pair
// reaches it, the result is DisparityBound's, and its ties field holds
// the descent's tied ranks.
func (a *Analysis) disparityBound(task model.TaskID, m Method, maxChains int, cutoff timeu.Time) (*TaskDisparity, error) {
	ev := a.pairEvalFor(task, maxChains)
	td := ev.taskDisparity(task)
	if td.NumPairs == 0 {
		return td, nil
	}
	n := ev.idx.NumChains()
	best := ev.boundSubtree(m, n, subtreeRectCap, td.NumPairs >= parallelPairThreshold, cutoff)
	if best.err != nil {
		return nil, best.err
	}
	// Re-evaluate the winning pair once to materialize its PairBound
	// (its block already counted it).
	i, j := pairAt(n, best.rank)
	var s pairScratch
	var v pairVals
	if m == PDiff {
		ev.evalPDiff(i, j, &v)
	} else if err := ev.evalSDiff(i, j, &s, &v); err != nil {
		return nil, err
	}
	td.Bound = best.bound
	td.ArgMax = 0
	td.ties = best.ties
	td.Pairs = []*PairBound{ev.toPairBound(ev.idx.Chain(i), ev.idx.Chain(j), &v)}
	return td, nil
}

// evalPair evaluates pair (i, j) into v with the per-pair dominance
// prune: evaluated is false when the pair's cheap upper bound (pdiffUB,
// or pairUB when the index has masks) could not reach the shared
// running maximum. threshold only grows, and a stale read merely
// prunes less, so the shared atomic is sound under concurrency; the
// result never depends on it (a pruned pair's bound is strictly below
// the final maximum, so it can attain neither the maximum nor the
// first-attaining rank).
func (ev *pairEval) evalPair(m Method, i, j int, s *pairScratch, v *pairVals, threshold *atomic.Int64) (evaluated bool, err error) {
	if m == PDiff {
		if ev.pdiffUB(i, j) < timeu.Time(threshold.Load()) {
			return false, nil
		}
		ev.evalPDiff(i, j, v)
		return true, nil
	}
	if ev.maskStride != 0 {
		u, w := ev.idx.Leaf(i), ev.idx.Leaf(j)
		if ev.pairUB(i, j, u, w, ev.idx.LCA(u, w)) < timeu.Time(threshold.Load()) {
			return false, nil
		}
	}
	if err := ev.evalSDiff(i, j, s, v); err != nil {
		return false, err
	}
	return true, nil
}
