package model

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/timeu"
)

// readJSONReference is ReadJSON as it was before the loader got a
// decoder written for its schema: encoding/json into graphJSON with
// unknown fields disallowed, then the build. It is the specification
// the differential tests hold ReadJSON to.
func readJSONReference(r io.Reader) (*Graph, error) {
	var in graphJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("model: decoding graph: %w", err)
	}
	g := NewGraph()
	ecuByName := make(map[string]ECUID)
	for _, e := range in.ECUs {
		var kind ECUKind
		switch e.Kind {
		case "compute", "":
			kind = Compute
		case "bus":
			kind = Bus
		default:
			return nil, fmt.Errorf("model: ECU %q has unknown kind %q", e.Name, e.Kind)
		}
		if _, dup := ecuByName[e.Name]; dup {
			return nil, fmt.Errorf("model: duplicate ECU name %q", e.Name)
		}
		ecuByName[e.Name] = g.AddECU(e.Name, kind)
	}
	taskByName := make(map[string]TaskID)
	parse := func(what, name, s string, def timeu.Time) (timeu.Time, error) {
		if s == "" {
			return def, nil
		}
		d, err := timeu.Parse(s)
		if err != nil {
			return 0, fmt.Errorf("model: task %q %s: %w", name, what, err)
		}
		return d, nil
	}
	for _, t := range in.Tasks {
		if _, dup := taskByName[t.Name]; dup {
			return nil, fmt.Errorf("model: duplicate task name %q", t.Name)
		}
		wcet, err := parse("wcet", t.Name, t.WCET, 0)
		if err != nil {
			return nil, err
		}
		bcet, err := parse("bcet", t.Name, t.BCET, 0)
		if err != nil {
			return nil, err
		}
		period, err := parse("period", t.Name, t.Period, 0)
		if err != nil {
			return nil, err
		}
		maxPeriod, err := parse("max_period", t.Name, t.MaxPeriod, 0)
		if err != nil {
			return nil, err
		}
		deadline, err := parse("deadline", t.Name, t.Deadline, 0)
		if err != nil {
			return nil, err
		}
		offset, err := parse("offset", t.Name, t.Offset, 0)
		if err != nil {
			return nil, err
		}
		ecu := NoECU
		if t.ECU != "" {
			id, ok := ecuByName[t.ECU]
			if !ok {
				return nil, fmt.Errorf("model: task %q references unknown ECU %q", t.Name, t.ECU)
			}
			ecu = id
		}
		var sem Semantics
		switch t.Sem {
		case "", "implicit":
			sem = Implicit
		case "let":
			sem = LET
		default:
			return nil, fmt.Errorf("model: task %q has unknown semantics %q", t.Name, t.Sem)
		}
		taskByName[t.Name] = g.AddTask(Task{
			Name: t.Name, WCET: wcet, BCET: bcet, Period: period,
			MaxPeriod: maxPeriod, Deadline: deadline, Offset: offset,
			Prio: t.Prio, ECU: ecu, Sem: sem,
		})
	}
	for _, e := range in.Edges {
		src, ok := taskByName[e.Src]
		if !ok {
			return nil, fmt.Errorf("model: edge references unknown task %q", e.Src)
		}
		dst, ok := taskByName[e.Dst]
		if !ok {
			return nil, fmt.Errorf("model: edge references unknown task %q", e.Dst)
		}
		capacity := e.Cap
		if capacity == 0 {
			capacity = 1
		}
		if err := g.AddBufferedEdge(src, dst, capacity); err != nil {
			return nil, err
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}
