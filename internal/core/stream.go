package core

import (
	"repro/internal/model"
)

// ForEachPairBound streams every pair's PairBound in the row-major
// order of Disparity's Pairs slice, without materializing the list:
// one PairBound is reused across calls, so fn must not retain pb (or
// its windows) past the call — copy what it needs. Chains themselves
// are shared slices and stable. fn may stop the stream early by
// returning false at rank k; Bound and the worst pair then cover ranks
// 0..k only, while NumPairs and Truncated still describe the whole
// task.
//
// The summary mirrors DisparityBound's shape — Pairs holds just the
// worst pair seen (the first attaining Bound; a private copy, safe to
// retain), ArgMax is 0, and a full stream's Bound/NumPairs/Truncated
// match Disparity's. Disparity is this stream collected into a list;
// disparity-analyze -pairs prints it as it streams, in O(1) pair
// memory at any pair count.
func (a *Analysis) ForEachPairBound(task model.TaskID, m Method, maxChains int, fn func(rank int, pb *PairBound) bool) (*TaskDisparity, error) {
	ev := a.pairEvalFor(task, maxChains)
	td := ev.taskDisparity(task)
	if td.NumPairs == 0 {
		return td, nil
	}
	cs := ev.store.chains(ev.idx)
	var pb PairBound
	var best pairVals
	bi, bj, rank := -1, -1, 0
	err := ev.forEachPair(m, func(i, j int, v *pairVals) bool {
		if v.bound > td.Bound || bi < 0 {
			td.Bound, best, bi, bj = v.bound, *v, i, j
		}
		ev.fillPairBound(&pb, cs[i], cs[j], v)
		more := fn(rank, &pb)
		rank++
		return more
	})
	if err != nil {
		return nil, err
	}
	td.ArgMax = 0
	td.Pairs = []*PairBound{ev.toPairBound(cs[bi], cs[bj], &best)}
	return td, nil
}
