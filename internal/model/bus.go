package model

import (
	"fmt"

	"repro/internal/timeu"
)

// BusMessage describes a periodic message frame created by SplitOverBus.
type BusMessage struct {
	// Task is the message task inserted on the bus.
	Task TaskID
	// Src and Dst are the original endpoints of the split edge.
	Src, Dst TaskID
}

// SplitOverBus rewrites every edge whose endpoints live on different
// compute ECUs into a two-hop path through a periodic message task on the
// given bus, following §II-A of the paper: "The communicating between two
// tasks mapped to different ECUs is modeled as a periodic task on the bus."
//
// The message task inherits the producer's period (it forwards the freshest
// token once per production), executes for frameTime = frameBest..frameWorst
// on the bus, and is assigned the next free priority on the bus in edge
// order (CAN-style static arbitration: callers who need specific IDs can
// re-assign priorities afterwards). Buffer capacities of the original edge
// are preserved on the producer→message hop; the message→consumer hop gets
// capacity 1.
//
// The graph is modified in place; the inserted messages are returned.
func (g *Graph) SplitOverBus(bus ECUID, frameBest, frameWorst timeu.Time) ([]BusMessage, error) {
	if bus < 0 || int(bus) >= len(g.ecus) {
		return nil, fmt.Errorf("model: unknown bus ECU %d", bus)
	}
	if g.ecus[bus].Kind != Bus {
		return nil, fmt.Errorf("model: ECU %s is not a bus", g.ecus[bus].Name)
	}
	if frameBest < 0 || frameWorst < frameBest {
		return nil, fmt.Errorf("model: invalid frame time range [%v,%v]", frameBest, frameWorst)
	}
	nextPrio := 0
	for _, id := range g.TasksOnECU(bus) {
		if p := g.Task(id).Prio; p >= nextPrio {
			nextPrio = p + 1
		}
	}
	var out []BusMessage
	// Collect first: we mutate the edge list while iterating otherwise.
	var toSplit []Edge
	for _, e := range g.edges {
		src, dst := &g.tasks[e.Src], &g.tasks[e.Dst]
		if src.ECU == NoECU || dst.ECU == NoECU || src.ECU == dst.ECU {
			continue
		}
		if g.ecus[src.ECU].Kind != Compute || g.ecus[dst.ECU].Kind != Compute {
			continue
		}
		toSplit = append(toSplit, e)
	}
	for _, e := range toSplit {
		src, dst := &g.tasks[e.Src], &g.tasks[e.Dst]
		if frameWorst > src.Period {
			return nil, fmt.Errorf("model: frame time %v exceeds producer period %v on edge %s->%s",
				frameWorst, src.Period, src.Name, dst.Name)
		}
		msg := g.AddTask(Task{
			Name:   fmt.Sprintf("msg_%s_%s", src.Name, dst.Name),
			WCET:   frameWorst,
			BCET:   frameBest,
			Period: src.Period,
			Prio:   nextPrio,
			ECU:    bus,
		})
		nextPrio++
		g.removeEdge(e.Src, e.Dst)
		if err := g.AddBufferedEdge(e.Src, msg, e.Cap); err != nil {
			return nil, err
		}
		if err := g.AddEdge(msg, e.Dst); err != nil {
			return nil, err
		}
		out = append(out, BusMessage{Task: msg, Src: e.Src, Dst: e.Dst})
	}
	return out, nil
}

func (g *Graph) removeEdge(src, dst TaskID) {
	i, ok := g.edge(src, dst)
	if !ok {
		return
	}
	g.edges = append(g.edges[:i], g.edges[i+1:]...)
	delete(g.edgeIdx, edgeKey(src, dst))
	for j := i; j < len(g.edges); j++ {
		g.edgeIdx[edgeKey(g.edges[j].Src, g.edges[j].Dst)] = j
	}
	g.adjValid = false
}
