package sched

import (
	"sort"

	"repro/internal/model"
	"repro/internal/timeu"
)

// AssignRateMonotonic assigns priorities per ECU by increasing period
// (shorter period = higher priority = smaller Prio value), breaking ties
// by task ID. It overwrites the Prio field of every scheduled task.
func AssignRateMonotonic(g *model.Graph) {
	assignByOrder(g, func(a, b *model.Task) bool {
		if a.Period != b.Period {
			return a.Period < b.Period
		}
		return a.ID < b.ID
	})
}

// AssignDeadlineMonotonic assigns priorities per ECU by increasing
// effective deadline (shorter deadline = higher priority), the optimal
// fixed-priority order for constrained-deadline tasks under preemptive
// scheduling and the usual heuristic under NP-FP. Ties break by task ID.
func AssignDeadlineMonotonic(g *model.Graph) {
	assignByOrder(g, func(a, b *model.Task) bool {
		da, db := a.EffectiveDeadline(), b.EffectiveDeadline()
		if da != db {
			return da < db
		}
		return a.ID < b.ID
	})
}

// AssignByID assigns priorities per ECU by task ID (insertion order),
// useful for deterministic fixtures.
func AssignByID(g *model.Graph) {
	assignByOrder(g, func(a, b *model.Task) bool { return a.ID < b.ID })
}

// AssignTopological assigns priorities per ECU by topological position:
// producers outrank their (same-ECU) consumers. Under Lemma 4 every
// same-ECU hop of every chain then falls into the cheap
// π^i ∈ hp(π^{i+1}) case (θ = T(π^i) instead of
// T(π^i) + R(π^i) − W(π^i) − B(π^{i+1})), tightening the backward-time
// and disparity bounds — at the price of ignoring rate-monotonic
// schedulability heuristics, so re-check schedulability afterwards.
// Returns an error only if the graph is cyclic.
func AssignTopological(g *model.Graph) error {
	order, err := g.TopoOrder()
	if err != nil {
		return err
	}
	pos := make(map[model.TaskID]int, len(order))
	for i, id := range order {
		pos[id] = i
	}
	assignByOrder(g, func(a, b *model.Task) bool { return pos[a.ID] < pos[b.ID] })
	return nil
}

func assignByOrder(g *model.Graph, less func(a, b *model.Task) bool) {
	for _, ids := range g.TasksByECU() {
		sort.Slice(ids, func(i, j int) bool { return less(g.Task(ids[i]), g.Task(ids[j])) })
		for rank, id := range ids {
			g.Task(id).Prio = rank
		}
	}
}

// AssignAudsley searches for a priority assignment that makes every ECU
// schedulable under non-preemptive fixed priority, using Audsley's
// optimal priority assignment: repeatedly find a task that is schedulable
// at the lowest unassigned priority level. It returns false if no
// assignment exists under this analysis (the test is sufficient, not
// exact, so false negatives are possible). On success the graph's Prio
// fields hold the found assignment; on failure they are unchanged.
func AssignAudsley(g *model.Graph) bool {
	byECU := g.TasksByECU()
	for _, ids := range byECU {
		if !audsleyECU(g, ids) {
			return false
		}
	}
	for _, ids := range byECU {
		for level, id := range ids {
			g.Task(id).Prio = level
		}
	}
	return true
}

// audsleyECU reorders one ECU's tasks in place into a feasible priority
// order, highest priority first. ids[:n] holds the still unassigned tasks
// in their original relative order and ids[n:] the tasks already placed
// below them. A candidate at level n−1 has the other unassigned tasks as
// its hp set and is blocked by the longest task placed below it.
func audsleyECU(g *model.Graph, ids []model.TaskID) bool {
	var hp []demand
	var blk timeu.Time
	for n := len(ids); n > 0; n-- {
		placed := false
		for i, cand := range ids[:n] {
			hp = hp[:0]
			for _, other := range ids[:n] {
				if other != cand {
					hp = append(hp, demandOf(g.Task(other)))
				}
			}
			task := g.Task(cand)
			if r, ok := npResponseTime(task, hp, blk); ok && r <= task.EffectiveDeadline() {
				copy(ids[i:n-1], ids[i+1:n])
				ids[n-1] = cand
				blk = max(blk, task.WCET)
				placed = true
				break
			}
		}
		if !placed {
			return false
		}
	}
	return true
}
