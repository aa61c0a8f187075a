package sched

import (
	"sort"

	"repro/internal/model"
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
