package backward

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/chains"
	"repro/internal/model"
	"repro/internal/timeu"
)

// TrieBounds holds WCBT/BCBT partial sums for every node of a chain
// trie, computed incrementally along the trie edges: one theta/buffer
// evaluation per distinct task→sink path instead of one per (chain,
// position). Both Lemma-4/5 sums and their Dürr/LET variants are
// prefix sums over the path node..root in the exact-integer time ring,
// so the difference of two node prefixes reproduces the per-segment
// iteration of WCBT/BCBT bit for bit.
//
// The segment API Bounds(u, v) covers exactly the sub-chains the pair
// analysis needs: u a trie node, v an ancestor of u (or u itself), the
// chain being the task path u..v in head→tail order.
type TrieBounds struct {
	a   *Analyzer
	idx *chains.Index

	// Cumulative over the path node..root:
	whop []timeu.Time // Σ theta + bufferShiftHi over hops (Lemma 4 + 6)
	blo  []timeu.Time // Σ bufferShiftLo over hops (Lemma 6)
	bsum []timeu.Time // Σ BCET over tasks, node and root inclusive (Lemma 5)
	pper []timeu.Time // Σ Period over scheduled tasks, node inclusive (LET)
	// schedAt[n] is the nearest scheduled ancestor-or-self of n, -1 if
	// the whole path node..root is unscheduled. Its semantics decide the
	// BCBT branch of any segment it falls into (the build panics on
	// mixed semantics, so one scheduled node speaks for all).
	schedAt []int32

	// Lazily built per-subtree aggregates (see SubtreeAggs).
	aggOnce sync.Once
	aggs    []SubtreeAgg
	aggLET  bool
}

// SubtreeAgg is the min/max envelope of the leaf-side aggregate keys
// over one trie node's leaf range. A segment bound leaf..f splits into
// a per-leaf key plus a per-f offset (BlockOffsets):
//
//	𝒲(leaf..f)  = whop[leaf]              + wOff(f)
//	ℬ(leaf..f)  = keyB[leaf]              + bOff(f)    (Dürr/implicit)
//	ℬ(leaf..f)  = (pper+blo)[leaf]        + bletOff(f) (LET branch)
//
// so [Min+off, Max+off] brackets the exact segment windows of every
// leaf in the range without touching the leaves — the block upper
// bound of the subtree-pruned pair loop. keyB is blo under Dürr and
// bsum+blo under the implicit Lemma-5 branch; which ℬ line applies is
// per leaf (the LET branch needs a scheduled task on leaf..f), so when
// the trie holds LET tasks at all, callers take the hull of both
// candidate intervals — sound because each leaf's true ℬ is one of the
// two. Empty subtrees (truncated construction) keep the crossed
// sentinels Min = +∞ > Max = −∞ and must be skipped, not folded.
type SubtreeAgg struct {
	MinW, MaxW       timeu.Time
	MinB, MaxB       timeu.Time
	MinBLET, MaxBLET timeu.Time
}

// fold widens the envelope by another node's envelope.
func (s *SubtreeAgg) fold(o *SubtreeAgg) {
	s.MinW = timeu.Min(s.MinW, o.MinW)
	s.MaxW = timeu.Max(s.MaxW, o.MaxW)
	s.MinB = timeu.Min(s.MinB, o.MinB)
	s.MaxB = timeu.Max(s.MaxB, o.MaxB)
	s.MinBLET = timeu.Min(s.MinBLET, o.MinBLET)
	s.MaxBLET = timeu.Max(s.MaxBLET, o.MaxBLET)
}

// Fold widens the envelope by another node's envelope (the exported
// run-folding entry point of the pair evaluator).
func (s *SubtreeAgg) Fold(o *SubtreeAgg) { s.fold(o) }

// emptyAgg is the fold identity: crossed infinities that any real leaf
// key replaces.
var emptyAgg = SubtreeAgg{
	MinW: math.MaxInt64, MaxW: math.MinInt64,
	MinB: math.MaxInt64, MaxB: math.MinInt64,
	MinBLET: math.MaxInt64, MaxBLET: math.MinInt64,
}

// SubtreeAggs returns the per-trie-node key envelopes over each node's
// leaf range, plus whether any scheduled task in the graph runs under
// LET (in which case block bounds must hull the ℬ candidates, see
// SubtreeAgg). Built lazily in one reverse-preorder fold; the slice is
// immutable and safe for concurrent use.
func (tb *TrieBounds) SubtreeAggs() ([]SubtreeAgg, bool) {
	tb.aggOnce.Do(func() {
		idx := tb.idx
		n := idx.NumNodes()
		aggs := make([]SubtreeAgg, n)
		for i := range aggs {
			aggs[i] = emptyAgg
		}
		for i := 0; i < idx.NumChains(); i++ {
			l := idx.Leaf(i)
			w := tb.whop[l]
			b := tb.blo[l]
			if tb.a.method != Duerr {
				b += tb.bsum[l]
			}
			blet := tb.pper[l] + tb.blo[l]
			aggs[l] = SubtreeAgg{MinW: w, MaxW: w, MinB: b, MaxB: b, MinBLET: blet, MaxBLET: blet}
		}
		for c := int32(n - 1); c >= 1; c-- {
			aggs[idx.NodeParent(c)].fold(&aggs[c])
		}
		tb.aggs = aggs
		for t := 0; t < tb.a.g.NumTasks(); t++ {
			if tsk := tb.a.g.Task(model.TaskID(t)); tsk.ECU != model.NoECU && tsk.Sem == model.LET {
				tb.aggLET = true
				break
			}
		}
	})
	return tb.aggs, tb.aggLET
}

// BlockOffsets returns the per-join-node offsets completing the
// SubtreeAgg keys into exact segment bounds at join node f: for any
// leaf u in a subtree hanging off f, 𝒲(u..f) = whop[u] + wOff, and
// ℬ(u..f) is keyB[u] + bOff on the Dürr/implicit branch or
// (pper+blo)[u] + bletOff on the LET branch — the same three-way split
// as segBCBT, rearranged so everything depending on f is in the
// offset.
func (tb *TrieBounds) BlockOffsets(f int32) (wOff, bOff, bletOff timeu.Time) {
	wOff = -tb.whop[f]
	ft := tb.idx.NodeTask(f)
	if tb.a.method == Duerr {
		bOff = -tb.a.wcrt.R(ft) - tb.blo[f]
	} else {
		bOff = -tb.bsum[f] + tb.a.g.Task(ft).BCET - tb.a.wcrt.R(ft) - tb.blo[f]
	}
	bletOff = -tb.pper[f] - tb.blo[f]
	return wOff, bOff, bletOff
}

// TrieBounds computes the per-node bound tables for idx. Like WCBT and
// BCBT it panics when a chain in the trie mixes communication
// semantics among scheduled tasks (see CheckChain).
//
// Trie nodes are appended parent-before-child, so one forward pass
// sees every parent first; IndexBounds feeds the same per-node step
// from the index construction itself, without the second walk.
func (a *Analyzer) TrieBounds(idx *chains.Index) *TrieBounds {
	n := idx.NumNodes()
	tb := &TrieBounds{
		a:       a,
		idx:     idx,
		whop:    make([]timeu.Time, 0, n),
		blo:     make([]timeu.Time, 0, n),
		bsum:    make([]timeu.Time, 0, n),
		pper:    make([]timeu.Time, 0, n),
		schedAt: make([]int32, 0, n),
	}
	for u := int32(0); u < int32(n); u++ {
		tb.addNode(idx, u)
	}
	return tb
}

// IndexBounds builds the chain trie and its per-node bound tables in
// one streaming pass: each trie node is folded into the prefix sums the
// moment NewIndexStream creates it. The result is identical to
// NewIndex followed by TrieBounds; fleet-scale tries just never pay the
// second O(nodes) walk.
func (a *Analyzer) IndexBounds(g *model.Graph, task model.TaskID, maxChains int) (*chains.Index, *TrieBounds) {
	tb := &TrieBounds{a: a}
	idx := chains.NewIndexStream(g, task, maxChains, tb.addNode)
	tb.idx = idx
	return idx, tb
}

// addNode appends node u's cumulative sums, reading only u's task and
// its (already appended) parent — the visitor contract of
// NewIndexStream.
func (tb *TrieBounds) addNode(idx *chains.Index, u int32) {
	a := tb.a
	task := idx.NodeTask(u)
	tsk := a.g.Task(task)
	if u == 0 {
		tb.whop = append(tb.whop, 0)
		tb.blo = append(tb.blo, 0)
		tb.bsum = append(tb.bsum, tsk.BCET)
		if tsk.ECU != model.NoECU {
			tb.pper = append(tb.pper, tsk.Period)
			tb.schedAt = append(tb.schedAt, 0)
		} else {
			tb.pper = append(tb.pper, 0)
			tb.schedAt = append(tb.schedAt, -1)
		}
		return
	}
	p := idx.NodeParent(u)
	ptask := idx.NodeTask(p)
	tb.whop = append(tb.whop, tb.whop[p]+a.theta(task, ptask)+a.bufferShiftHi(task, ptask))
	tb.blo = append(tb.blo, tb.blo[p]+a.bufferShiftLo(task, ptask))
	tb.bsum = append(tb.bsum, tb.bsum[p]+tsk.BCET)
	pper, schedAt := tb.pper[p], tb.schedAt[p]
	if tsk.ECU != model.NoECU {
		if anc := schedAt; anc >= 0 {
			if ancSem := a.g.Task(idx.NodeTask(anc)).Sem; ancSem != tsk.Sem {
				// Same condition and message as CheckChain, with
				// the head-side (deeper) semantics named first.
				panic(fmt.Errorf("backward: chain mixes %v and %v tasks", tsk.Sem, ancSem))
			}
		}
		pper += tsk.Period
		schedAt = u
	}
	tb.pper = append(tb.pper, pper)
	tb.schedAt = append(tb.schedAt, schedAt)
}

// Index returns the trie the bounds were computed for.
func (tb *TrieBounds) Index() *chains.Index { return tb.idx }

// Bounds returns (𝒲(π), ℬ(π)) for the chain π spelled by the trie path
// u..v, where v is an ancestor of u or u itself (a single-task chain).
// The values equal Analyzer.Bounds on the materialized sub-chain.
func (tb *TrieBounds) Bounds(u, v int32) (wcbt, bcbt timeu.Time) {
	return tb.whop[u] - tb.whop[v], tb.segBCBT(u, v)
}

// WCBT returns 𝒲 of the segment u..v alone.
func (tb *TrieBounds) WCBT(u, v int32) timeu.Time { return tb.whop[u] - tb.whop[v] }

// segBCBT mirrors BCBT's three-way branch on the segment. The
// segment's first scheduled task in chain order is the scheduled node
// nearest u, schedAt[u]; it lies inside the segment iff it is at least
// as deep as v.
func (tb *TrieBounds) segBCBT(u, v int32) timeu.Time {
	b := tb.blo[u] - tb.blo[v]
	idx := tb.idx
	if s := tb.schedAt[u]; s >= 0 && idx.NodeDepth(s) >= idx.NodeDepth(v) &&
		tb.a.g.Task(idx.NodeTask(s)).Sem == model.LET {
		// LET: one full producer period per scheduled non-tail task.
		return tb.pper[u] - tb.pper[v] + b
	}
	vt := idx.NodeTask(v)
	if tb.a.method == Duerr {
		return -tb.a.wcrt.R(vt) + b
	}
	// Implicit (Lemma 5): Σ BCET over every task of the segment, tail
	// inclusive, minus the tail's response time.
	return tb.bsum[u] - tb.bsum[v] + tb.a.g.Task(vt).BCET - tb.a.wcrt.R(vt) + b
}
