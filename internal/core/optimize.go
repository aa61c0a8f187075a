package core

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/timeu"
)

// BufferPlan is the outcome of Algorithm 1 for one chain pair: enlarge the
// input buffer of Edge's destination (the second task of the chain whose
// sampling window sits further right) to Cap, shifting that window left by
// L and reducing the pairwise disparity bound accordingly (Theorem 3).
type BufferPlan struct {
	// Edge identifies the channel whose capacity is changed: the head
	// edge (π¹ → π²) of the shifted chain.
	Edge model.Edge
	// Cap is the designed capacity ⌊(M_right − M_left)/T(π¹)⌋ + 1.
	Cap int
	// L = (Cap−1)·T(π¹) is the achieved left shift of the sampling window.
	L timeu.Time
	// ShiftedLambda reports whether λ (true) or ν (false) was shifted.
	ShiftedLambda bool
	// Before is the S-diff bound without the buffer, After the Theorem-3
	// bound with it: After = Before − L (floored per the same-head case).
	Before, After timeu.Time
}

// Optimize runs Algorithm 1 of the paper on a pair of chains ending at
// the same task: it computes the two sampling windows via Theorem 2,
// compares their midpoints, and sizes the input buffer of the
// later-sampling chain's second task so the windows overlap as much as
// possible. Chains of length 1 cannot be shifted (they have no head edge)
// and yield an error.
//
// The receiver's graph is not modified; apply the plan with
// BufferPlan.Apply or model.Graph.SetBuffer.
func (a *Analysis) Optimize(lambda, nu model.Chain) (*BufferPlan, error) {
	pb, err := a.PairDisparity(lambda, nu, SDiff)
	if err != nil {
		return nil, err
	}
	// Midpoint comparison in doubled units keeps half-nanosecond
	// midpoints exact.
	m2l, m2n := pb.WindowLambda.Mid2(), pb.WindowNu.Mid2()
	plan := &BufferPlan{Before: pb.Bound}
	var target model.Chain
	if m2l >= m2n {
		plan.ShiftedLambda = true
		target = lambda
	} else {
		target = nu
	}
	if target.Len() < 2 {
		return nil, fmt.Errorf("core: chain %v has no head edge to buffer", target)
	}
	period := a.g.Task(target.Head()).Period
	diff2 := m2l - m2n
	if diff2 < 0 {
		diff2 = -diff2
	}
	k := timeu.FloorDiv(diff2, 2*period) // ⌊(M_right − M_left)/T(π¹)⌋
	// The windows already reflect any existing buffer on the head edge
	// (Lemma 6 is folded into the backward bounds), so k is the number
	// of ADDITIONAL slots; on a fresh capacity-1 edge this is the
	// paper's ⌊(M−M')/T⌋ + 1.
	existing := a.g.Buffer(target.Head(), target[1])
	if existing < 1 {
		return nil, fmt.Errorf("core: chain head edge %s -> %s not in graph",
			a.g.Task(target.Head()).Name, a.g.Task(target[1]).Name)
	}
	plan.Cap = existing + int(k)
	plan.L = timeu.Time(k) * period
	plan.Edge = model.Edge{Src: target.Head(), Dst: target[1], Cap: plan.Cap}
	plan.After = pb.Bound - plan.L
	return plan, nil
}

// Apply sets the planned buffer capacity on the graph (typically a clone
// of the analyzed one, or the same graph when re-analysis is intended).
func (p *BufferPlan) Apply(g *model.Graph) error {
	return g.SetBuffer(p.Edge.Src, p.Edge.Dst, p.Cap)
}

// OptimizeTask applies Algorithm 1 to the worst pair of the task's
// disparity analysis (the pair attaining the S-diff bound after suffix
// stripping) and returns the plan. This is the paper's intended use: cut
// the worst-case time disparity of one fusion task.
func (a *Analysis) OptimizeTask(task model.TaskID, maxChains int) (*BufferPlan, *TaskDisparity, error) {
	td, err := a.Disparity(task, SDiff, maxChains)
	if err != nil {
		return nil, nil, err
	}
	if td.ArgMax < 0 {
		return nil, td, fmt.Errorf("core: task %s has fewer than two chains; nothing to optimize", a.g.Task(task).Name)
	}
	worst := td.Pairs[td.ArgMax]
	plan, err := a.Optimize(worst.Lambda, worst.Nu)
	if err != nil {
		return nil, td, err
	}
	return plan, td, nil
}

// GreedyResult reports OptimizeTaskGreedy's outcome.
type GreedyResult struct {
	// Plans are the applied buffer plans, in application order.
	Plans []*BufferPlan
	// Before and After are the task's S-diff bounds on the original and
	// the optimized graph.
	Before, After timeu.Time
	// Graph is the optimized clone with all plans applied.
	Graph *model.Graph
	// Truncated reports that the chain enumeration hit the cap, i.e.
	// the optimization saw only a partial chain set (see
	// TaskDisparity.Truncated); Cause names the limit that was hit.
	Truncated bool
	Cause     TruncationCause
}

// OptimizeTaskGreedy extends Algorithm 1 beyond a single chain pair: it
// repeatedly applies Algorithm 1 to the task's current worst pair on a
// clone of the graph, re-analyzes the clone, and stops when a round
// yields no improvement (or after maxRounds). The original graph is
// never modified.
//
// This is a natural extension of the paper's optimization, which only
// treats one pair — and on multi-chain fusion tasks the global check is
// essential, not cosmetic: a buffer shifts its source's sampling window
// in EVERY pair that source participates in, so a naive single
// application to the worst pair can increase the task-level bound (a
// previously harmless pair becomes the new worst; see
// exp.AblationGreedyBuffers for measurements). The greedy loop only
// keeps insertions that reduce the re-analyzed task bound.
//
// Each clone differs from its parent in one buffer capacity, which
// enters neither the WCRT fixed point nor the chain topology. So a
// clone's Analysis reuses the parent's WCRT result and chain trie, and
// the bound that decided a round is the next round's worst pair.
func (a *Analysis) OptimizeTaskGreedy(task model.TaskID, maxChains, maxRounds int) (*GreedyResult, error) {
	if maxRounds <= 0 {
		maxRounds = 16
	}
	// The greedy loop only ever needs each round's worst pair, so it
	// runs on the pruned bound-only evaluation; the argmax pair is
	// identical to full Disparity's (first pair attaining the maximum).
	td, err := a.DisparityBound(task, SDiff, maxChains)
	if err != nil {
		return nil, err
	}
	res := &GreedyResult{Before: td.Bound, After: td.Bound, Graph: a.g.Clone(), Truncated: td.Truncated, Cause: td.Cause}
	if td.ArgMax < 0 {
		return res, nil
	}
	cur := a
	for round := 0; round < maxRounds; round++ {
		worst := td.Pairs[td.ArgMax]
		plan, err := cur.Optimize(worst.Lambda, worst.Nu)
		if err != nil || plan.L <= 0 {
			break // the worst pair's windows are already aligned
		}
		next := res.Graph.Clone()
		if err := plan.Apply(next); err != nil {
			return nil, err
		}
		nextA := newAnalysis(next, cur.bw.Sched())
		// The clone inherits the trie (and its LCA/mask tables) with only
		// the bound prefix sums rebuilt — each round costs O(trie nodes +
		// pairs), not a fresh enumeration.
		nextA.adoptEval(task, maxChains, cur.pairEvalFor(task, maxChains).retarget(nextA))
		nextTd, err := nextA.DisparityBound(task, SDiff, maxChains)
		if err != nil {
			return nil, err
		}
		if nextTd.Bound >= res.After {
			break // no global improvement: another pair now dominates
		}
		res.Graph = next
		res.After = nextTd.Bound
		res.Plans = append(res.Plans, plan)
		cur, td = nextA, nextTd
	}
	return res, nil
}
