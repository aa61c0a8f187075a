package model_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/can"
	"repro/internal/model"
	"repro/internal/randgraph"
	"repro/internal/timeu"
	"repro/internal/waters"
)

// TestReadJSONFleetMatchesReference loads fleet graphs of every size the
// fleet-verify benchmark workload draws (7–11 pipelines per ECU, split
// over a CAN bus) with both decoders: each must rebuild the graph it was
// written from, compared as WriteJSON bytes.
func TestReadJSONFleetMatchesReference(t *testing.T) {
	for pipes := 7; pipes <= 11; pipes++ {
		g, _, err := randgraph.Fleet(randgraph.FleetConfig{Zones: 8, ECUsPerZone: 4, PipesPerECU: pipes, ProcDepth: 6, TailLen: 2})
		if err != nil {
			t.Fatal(err)
		}
		waters.PopulateBudget(g, rand.New(rand.NewSource(int64(pipes))), 20*timeu.Millisecond, 0.5)
		bus := can.Bus{Rate: can.Baud500k, Format: can.Standard, Payload: 8}
		if _, _, err := bus.Split(g, "can0"); err != nil {
			t.Fatal(err)
		}
		var doc bytes.Buffer
		if err := g.WriteJSON(&doc); err != nil {
			t.Fatal(err)
		}
		for name, read := range map[string]func(*bytes.Reader) (*model.Graph, error){
			"ReadJSON":  func(r *bytes.Reader) (*model.Graph, error) { return model.ReadJSON(r) },
			"reference": func(r *bytes.Reader) (*model.Graph, error) { return model.ReadJSONReference(r) },
		} {
			got, err := read(bytes.NewReader(doc.Bytes()))
			if err != nil {
				t.Fatalf("%d pipelines per ECU: %s: %v", pipes, name, err)
			}
			var again bytes.Buffer
			if err := got.WriteJSON(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), doc.Bytes()) {
				t.Fatalf("%d pipelines per ECU: %s does not rebuild the written graph", pipes, name)
			}
		}
	}
}
