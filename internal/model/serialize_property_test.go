package model

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/timeu"
)

// randomGraph builds a random valid graph directly on the model layer
// (randgraph depends on model, so the fuzz lives here without it).
func randomGraph(rng *rand.Rand) *Graph {
	g := NewGraph()
	numECUs := 1 + rng.Intn(3)
	ecus := make([]ECUID, numECUs)
	for i := range ecus {
		kind := Compute
		if rng.Intn(4) == 0 {
			kind = Bus
		}
		ecus[i] = g.AddECU("", kind)
	}
	// Name ECUs after creation (AddECU takes a name; build with one).
	n := 3 + rng.Intn(8)
	periods := []timeu.Time{1, 2, 5, 10, 20} // ms below
	for i := 0; i < n; i++ {
		period := periods[rng.Intn(len(periods))] * timeu.Millisecond
		wcet := timeu.Time(rng.Int63n(int64(period)/2) + 1)
		bcet := timeu.Time(rng.Int63n(int64(wcet)) + 1)
		sem := Implicit
		if rng.Intn(3) == 0 {
			sem = LET
		}
		var deadline timeu.Time
		if rng.Intn(3) == 0 {
			deadline = wcet + timeu.Time(rng.Int63n(int64(period-wcet)+1))
		}
		var maxPeriod timeu.Time
		if rng.Intn(4) == 0 {
			maxPeriod = period + timeu.Time(rng.Int63n(int64(period)))
		}
		g.AddTask(Task{
			WCET: wcet, BCET: bcet, Period: period,
			Deadline: deadline, MaxPeriod: maxPeriod,
			Offset: timeu.Time(rng.Int63n(int64(period))),
			Prio:   i,
			ECU:    ecus[rng.Intn(numECUs)],
			Sem:    sem,
		})
	}
	// Random forward edges (low -> high ID keeps it acyclic).
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(3) == 0 {
				capacity := 1 + rng.Intn(3)
				if err := g.AddBufferedEdge(TaskID(i), TaskID(j), capacity); err != nil {
					panic(err)
				}
			}
		}
	}
	// Sources must be stimuli or have exec time; make sources stimuli
	// half the time.
	for _, s := range g.Sources() {
		if rng.Intn(2) == 0 {
			t := g.Task(s)
			t.ECU = NoECU
			t.WCET, t.BCET = 0, 0
		}
	}
	return g
}

// TestJSONRoundTripProperty fuzzes random graphs through WriteJSON /
// ReadJSON and demands full structural equality.
func TestJSONRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 120; trial++ {
		g := randomGraph(rng)
		if err := g.Validate(); err != nil {
			// Offsets etc. are constructed valid; a failure here is a
			// generator bug worth knowing about.
			t.Fatalf("trial %d: generator produced invalid graph: %v", trial, err)
		}
		var buf strings.Builder
		if err := g.WriteJSON(&buf); err != nil {
			t.Fatalf("trial %d: WriteJSON: %v", trial, err)
		}
		got, err := ReadJSON(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("trial %d: ReadJSON: %v\n%s", trial, err, buf.String())
		}
		if got.NumTasks() != g.NumTasks() || got.NumEdges() != g.NumEdges() || got.NumECUs() != g.NumECUs() {
			t.Fatalf("trial %d: shape mismatch", trial)
		}
		for i := 0; i < g.NumTasks(); i++ {
			a, b := g.Task(TaskID(i)), got.Task(TaskID(i))
			if *a != *b {
				t.Fatalf("trial %d: task %d mismatch:\n%+v\n%+v", trial, i, a, b)
			}
		}
		for _, e := range g.Edges() {
			if got.Buffer(e.Src, e.Dst) != e.Cap {
				t.Fatalf("trial %d: edge (%d,%d) capacity mismatch", trial, e.Src, e.Dst)
			}
		}
		for i := 0; i < g.NumECUs(); i++ {
			if g.ECU(ECUID(i)).Kind != got.ECU(ECUID(i)).Kind {
				t.Fatalf("trial %d: ECU %d kind mismatch", trial, i)
			}
		}
	}
}

// TestReadJSONMatchesReference runs both decoders on the WriteJSON
// output of 300 random graphs: they must build the same graph.
func TestReadJSONMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 300; trial++ {
		var doc bytes.Buffer
		if err := randomGraph(rng).WriteJSON(&doc); err != nil {
			t.Fatal(err)
		}
		if checkAgainstReference(t, doc.Bytes()) == nil {
			t.Fatalf("trial %d: both decoders reject a written graph:\n%s", trial, doc.Bytes())
		}
	}
}

// sortedAdjacency builds every successor and predecessor list the
// straightforward way: appended edge by edge, then sorted.
func sortedAdjacency(g *Graph) (succ, pred [][]TaskID) {
	succ, pred = make([][]TaskID, g.NumTasks()), make([][]TaskID, g.NumTasks())
	for _, e := range g.Edges() {
		succ[e.Src] = append(succ[e.Src], e.Dst)
		pred[e.Dst] = append(pred[e.Dst], e.Src)
	}
	for i := range succ {
		sort.Slice(succ[i], func(a, b int) bool { return succ[i][a] < succ[i][b] })
		sort.Slice(pred[i], func(a, b int) bool { return pred[i][a] < pred[i][b] })
	}
	return succ, pred
}

// TestAdjacencyMatchesSortedLists holds Successors and Predecessors to
// sortedAdjacency on random graphs, on the same graphs with their edges
// added in shuffled order, and after SplitOverBus rewrites them through
// removeEdge and AddEdge. Every list must also be capacity-capped, so
// appending to one cannot overwrite its neighbour.
func TestAdjacencyMatchesSortedLists(t *testing.T) {
	check := func(trial int, what string, g *Graph) {
		t.Helper()
		succ, pred := sortedAdjacency(g)
		for i := range succ {
			id := TaskID(i)
			s, p := g.Successors(id), g.Predecessors(id)
			if !slices.Equal(s, succ[i]) || !slices.Equal(p, pred[i]) {
				t.Fatalf("trial %d, %s: task %d has successors %v and predecessors %v, want %v and %v",
					trial, what, i, s, p, succ[i], pred[i])
			}
			if cap(s) != len(s) || cap(p) != len(p) {
				t.Fatalf("trial %d, %s: task %d adjacency is not capacity-capped", trial, what, i)
			}
		}
	}
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 300; trial++ {
		g := randomGraph(rng)
		check(trial, "random", g)

		shuffled := NewGraph()
		for _, e := range g.ECUs() {
			shuffled.AddECU(e.Name, e.Kind)
		}
		for _, task := range g.Tasks() {
			shuffled.AddTask(task)
		}
		edges := g.Edges()
		for _, k := range rng.Perm(len(edges)) {
			if err := shuffled.AddBufferedEdge(edges[k].Src, edges[k].Dst, edges[k].Cap); err != nil {
				t.Fatal(err)
			}
		}
		check(trial, "shuffled", shuffled)

		bus := shuffled.AddECU("bus", Bus)
		if _, err := shuffled.SplitOverBus(bus, 1, 1); err != nil {
			t.Fatalf("trial %d: SplitOverBus: %v", trial, err)
		}
		check(trial, "split over a bus", shuffled)
	}
}
