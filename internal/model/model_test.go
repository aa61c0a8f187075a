package model

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/timeu"
)

const ms = timeu.Millisecond

func TestAddTaskAssignsIDsAndNames(t *testing.T) {
	g := NewGraph()
	a := g.AddTask(Task{Name: "a", Period: ms})
	b := g.AddTask(Task{Period: ms})
	if a != 0 || b != 1 {
		t.Fatalf("IDs = %d,%d; want 0,1", a, b)
	}
	if g.Task(b).Name != "task1" {
		t.Errorf("default name = %q, want task1", g.Task(b).Name)
	}
	if g.NumTasks() != 2 {
		t.Errorf("NumTasks = %d, want 2", g.NumTasks())
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := NewGraph()
	a := g.AddTask(Task{Name: "a", Period: ms})
	b := g.AddTask(Task{Name: "b", Period: ms})
	if err := g.AddEdge(a, b); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if err := g.AddEdge(a, b); err == nil {
		t.Error("duplicate edge accepted")
	}
	if err := g.AddEdge(a, a); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdge(a, 99); err == nil {
		t.Error("unknown endpoint accepted")
	}
	if err := g.AddBufferedEdge(b, a, 0); err == nil {
		t.Error("capacity 0 accepted")
	}
}

func TestAdjacencyAndClassification(t *testing.T) {
	g := Fig2Graph()
	t1, _ := g.TaskByName("t1")
	t3, _ := g.TaskByName("t3")
	t6, _ := g.TaskByName("t6")

	if !g.IsSource(t1.ID) || g.IsSink(t1.ID) {
		t.Error("t1 should be a pure source")
	}
	if !g.IsSink(t6.ID) || g.IsSource(t6.ID) {
		t.Error("t6 should be a pure sink")
	}
	if got := g.Predecessors(t3.ID); len(got) != 2 {
		t.Errorf("preds(t3) = %v, want 2 tasks", got)
	}
	if got := g.Successors(t3.ID); len(got) != 2 {
		t.Errorf("succs(t3) = %v, want 2 tasks", got)
	}
	if got := g.Sources(); len(got) != 2 {
		t.Errorf("Sources = %v, want 2", got)
	}
	if got := g.Sinks(); len(got) != 1 || got[0] != t6.ID {
		t.Errorf("Sinks = %v, want [t6]", got)
	}
}

func TestTopoOrder(t *testing.T) {
	g := Fig2Graph()
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatalf("TopoOrder: %v", err)
	}
	pos := make(map[TaskID]int)
	for i, id := range order {
		pos[id] = i
	}
	for _, e := range g.Edges() {
		if pos[e.Src] >= pos[e.Dst] {
			t.Errorf("edge %d->%d violates topological order", e.Src, e.Dst)
		}
	}
}

// refTopoOrder is TopoOrder as it was: a linear scan for the smallest
// ready ID and a splice out of the queue.
func refTopoOrder(g *Graph) []TaskID {
	indeg := make([]int, g.NumTasks())
	for _, e := range g.Edges() {
		indeg[e.Dst]++
	}
	var queue, order []TaskID
	for i := range indeg {
		if indeg[i] == 0 {
			queue = append(queue, TaskID(i))
		}
	}
	for len(queue) > 0 {
		best := 0
		for i := 1; i < len(queue); i++ {
			if queue[i] < queue[best] {
				best = i
			}
		}
		v := queue[best]
		queue = append(queue[:best], queue[best+1:]...)
		order = append(order, v)
		for _, s := range g.Successors(v) {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	return order
}

// randomDAG adds edges only from lower to higher IDs, after shuffling
// which IDs the endpoints get, so ready sets grow and shrink irregularly.
func randomDAG(rng *rand.Rand, n, m int) *Graph {
	g := NewGraph()
	ecus := 1 + rng.Intn(4)
	for e := 0; e < ecus; e++ {
		g.AddECU("", Compute)
	}
	for i := 0; i < n; i++ {
		g.AddTask(Task{WCET: ms, BCET: ms, Period: 10 * ms, Prio: rng.Intn(n), ECU: ECUID(rng.Intn(ecus))})
	}
	perm := rng.Perm(n)
	for k := 0; k < m; k++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		_ = g.AddEdge(TaskID(perm[a]), TaskID(perm[b])) // duplicates are rejected; skip them
	}
	return g
}

func TestTopoOrderMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		g := randomDAG(rng, n, rng.Intn(3*n))
		got, err := g.TopoOrder()
		if err != nil {
			t.Fatal(err)
		}
		if want := refTopoOrder(g); !slices.Equal(got, want) {
			t.Fatalf("trial %d: TopoOrder = %v, scan %v", trial, got, want)
		}
	}
}

func TestTasksByECU(t *testing.T) {
	g := Fig2Graph()
	empty := g.AddECU("empty", Compute)
	byECU := g.TasksByECU()
	if len(byECU) != g.NumECUs() {
		t.Fatalf("%d groups for %d ECUs", len(byECU), g.NumECUs())
	}
	total := 0
	for e, ids := range byECU {
		if want := g.TasksOnECU(ECUID(e)); !slices.Equal(ids, want) {
			t.Errorf("ECU %d: %v, TasksOnECU %v", e, ids, want)
		}
		total += len(ids)
	}
	if len(byECU[empty]) != 0 {
		t.Errorf("empty ECU lists %v", byECU[empty])
	}
	if stimuli := len(g.TasksOnECU(NoECU)); total+stimuli != g.NumTasks() {
		t.Errorf("%d grouped + %d stimuli, want %d tasks", total, stimuli, g.NumTasks())
	}
	// Appending to one group must not overwrite the next one's tasks.
	before := slices.Clone(byECU[1])
	_ = append(byECU[0], 99)
	if !slices.Equal(byECU[1], before) {
		t.Errorf("append to group 0 clobbered group 1: %v, was %v", byECU[1], before)
	}
}

// refDupPriority is Validate's priority check as it was: a map per ECU,
// scanned in ID order.
func refDupPriority(g *Graph) error {
	byECU := make(map[ECUID]map[int]TaskID)
	for i, t := range g.Tasks() {
		if t.ECU == NoECU {
			continue
		}
		m := byECU[t.ECU]
		if m == nil {
			m = make(map[int]TaskID)
			byECU[t.ECU] = m
		}
		if prev, dup := m[t.Prio]; dup {
			return fmt.Errorf("model: tasks %s and %s share priority %d on ECU %d",
				g.Task(prev).Name, t.Name, t.Prio, t.ECU)
		}
		m[t.Prio] = TaskID(i)
	}
	return nil
}

func TestValidateDuplicatePriorityMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	dups := 0
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(25)
		g := randomDAG(rng, n, rng.Intn(2*n))
		want := refDupPriority(g)
		got := g.Validate()
		if want == nil {
			if got != nil {
				t.Fatalf("trial %d: Validate = %v, want nil", trial, got)
			}
			continue
		}
		dups++
		if got == nil || got.Error() != want.Error() {
			t.Fatalf("trial %d: Validate = %v, want %v", trial, got, want)
		}
	}
	if dups == 0 {
		t.Error("no trial had a shared priority")
	}
}

func TestValidateDetectsCycle(t *testing.T) {
	g := NewGraph()
	ecu := g.AddECU("e", Compute)
	a := g.AddTask(Task{Name: "a", WCET: ms, BCET: ms, Period: 10 * ms, Prio: 0, ECU: ecu})
	b := g.AddTask(Task{Name: "b", WCET: ms, BCET: ms, Period: 10 * ms, Prio: 1, ECU: ecu})
	if err := g.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(b, a); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err == nil {
		t.Error("cycle not detected")
	}
}

func TestValidateRules(t *testing.T) {
	mk := func(mutate func(*Graph)) error {
		g := Fig2Graph()
		mutate(g)
		return g.Validate()
	}
	if err := mk(func(g *Graph) {}); err != nil {
		t.Errorf("Fig2 graph should validate: %v", err)
	}
	if err := mk(func(g *Graph) { g.Task(2).Period = 0 }); err == nil {
		t.Error("zero period accepted")
	}
	if err := mk(func(g *Graph) { g.Task(2).BCET = g.Task(2).WCET + 1 }); err == nil {
		t.Error("BCET > WCET accepted")
	}
	if err := mk(func(g *Graph) { g.Task(2).WCET = g.Task(2).Period + 1 }); err == nil {
		t.Error("WCET > period accepted")
	}
	if err := mk(func(g *Graph) { g.Task(0).WCET = ms; g.Task(0).BCET = ms }); err == nil {
		t.Error("unscheduled stimulus with nonzero WCET accepted")
	}
	if err := mk(func(g *Graph) {
		// Give t4 (has predecessors) no ECU: unscheduled non-sources are invalid.
		tk, _ := g.TaskByName("t4")
		tk.ECU = NoECU
		tk.WCET, tk.BCET = 0, 0
	}); err == nil {
		t.Error("unscheduled non-source accepted")
	}
	if err := mk(func(g *Graph) { g.Task(2).Offset = -1 }); err == nil {
		t.Error("negative offset accepted")
	}
	if err := mk(func(g *Graph) { g.Task(2).ECU = 42 }); err == nil {
		t.Error("unknown ECU accepted")
	}
	if err := mk(func(g *Graph) { g.Task(3).Prio = g.Task(2).Prio }); err == nil {
		t.Error("duplicate priorities on one ECU accepted")
	}
}

func TestHigherPriorityAndSameECU(t *testing.T) {
	g := Fig2Graph()
	t3, _ := g.TaskByName("t3")
	t4, _ := g.TaskByName("t4")
	t1, _ := g.TaskByName("t1")
	if !g.HigherPriority(t3.ID, t4.ID) {
		t.Error("t3 should outrank t4")
	}
	if g.HigherPriority(t4.ID, t3.ID) {
		t.Error("t4 should not outrank t3")
	}
	if g.HigherPriority(t1.ID, t3.ID) {
		t.Error("unscheduled source cannot participate in hp()")
	}
	if !g.SameECU(t3.ID, t4.ID) {
		t.Error("t3 and t4 share an ECU")
	}
	if g.SameECU(t1.ID, t3.ID) {
		t.Error("NoECU never equals a real ECU")
	}
	// Two NoECU tasks are not on the same ECU either.
	if g.SameECU(t1.ID, 1) {
		t.Error("two NoECU tasks reported as same ECU")
	}
}

func TestBufferOps(t *testing.T) {
	g := Fig2Graph()
	t1, _ := g.TaskByName("t1")
	t3, _ := g.TaskByName("t3")
	if got := g.Buffer(t1.ID, t3.ID); got != 1 {
		t.Fatalf("default Buffer = %d, want 1", got)
	}
	if err := g.SetBuffer(t1.ID, t3.ID, 3); err != nil {
		t.Fatalf("SetBuffer: %v", err)
	}
	if got := g.Buffer(t1.ID, t3.ID); got != 3 {
		t.Errorf("Buffer = %d, want 3", got)
	}
	if err := g.SetBuffer(t3.ID, t1.ID, 2); err == nil {
		t.Error("SetBuffer on missing edge accepted")
	}
	if err := g.SetBuffer(t1.ID, t3.ID, 0); err == nil {
		t.Error("SetBuffer to 0 accepted")
	}
	if got := g.Buffer(t3.ID, t1.ID); got != 0 {
		t.Errorf("Buffer on missing edge = %d, want 0", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := Fig2Graph()
	c := g.Clone()
	t1, _ := g.TaskByName("t1")
	t3, _ := g.TaskByName("t3")
	if err := c.SetBuffer(t1.ID, t3.ID, 7); err != nil {
		t.Fatal(err)
	}
	c.Task(t3.ID).Prio = 99
	if g.Buffer(t1.ID, t3.ID) != 1 {
		t.Error("clone shares edge storage with original")
	}
	if g.Task(t3.ID).Prio == 99 {
		t.Error("clone shares task storage with original")
	}
	if err := c.Validate(); err != nil {
		t.Errorf("clone does not validate: %v", err)
	}
}

func TestHyperperiodOfGraph(t *testing.T) {
	g := Fig2Graph()
	// Periods: 10, 15, 10, 20, 30, 30 ms -> LCM 60 ms.
	if got := g.Hyperperiod(); got != 60*ms {
		t.Errorf("Hyperperiod = %v, want 60ms", got)
	}
}

func TestChainHelpers(t *testing.T) {
	g := Fig2Graph()
	t1, _ := g.TaskByName("t1")
	t3, _ := g.TaskByName("t3")
	t5, _ := g.TaskByName("t5")
	t6, _ := g.TaskByName("t6")
	c := Chain{t1.ID, t3.ID, t5.ID, t6.ID}

	if c.Head() != t1.ID || c.Tail() != t6.ID || c.Len() != 4 {
		t.Error("Head/Tail/Len broken")
	}
	if !c.Contains(t5.ID) || c.Contains(99) {
		t.Error("Contains broken")
	}
	if c.Index(t5.ID) != 2 || c.Index(99) != -1 {
		t.Error("Index broken")
	}
	sub := c.Sub(1, 2)
	if !sub.Equal(Chain{t3.ID, t5.ID}) {
		t.Errorf("Sub = %v", sub)
	}
	if c.Equal(sub) {
		t.Error("Equal false positive")
	}
	if got := c.Format(g); got != "t1 -> t3 -> t5 -> t6" {
		t.Errorf("Format = %q", got)
	}
	if err := c.ValidIn(g); err != nil {
		t.Errorf("ValidIn: %v", err)
	}
	bad := Chain{t1.ID, t6.ID}
	if err := bad.ValidIn(g); err == nil {
		t.Error("non-path chain accepted")
	}
	if err := (Chain{}).ValidIn(g); err == nil {
		t.Error("empty chain accepted")
	}
	if err := (Chain{42}).ValidIn(g); err == nil {
		t.Error("chain with unknown task accepted")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := Fig2Graph()
	t1, _ := g.TaskByName("t1")
	t3, _ := g.TaskByName("t3")
	if err := g.SetBuffer(t1.ID, t3.ID, 4); err != nil {
		t.Fatal(err)
	}
	g.Task(t3.ID).Offset = 3 * ms
	for i := range g.Tasks() {
		g.Task(TaskID(i)).Sem = LET
	}

	var buf strings.Builder
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := ReadJSON(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if got.NumTasks() != g.NumTasks() || got.NumEdges() != g.NumEdges() || got.NumECUs() != g.NumECUs() {
		t.Fatalf("shape mismatch after round trip")
	}
	for i := range g.Tasks() {
		a, b := g.Task(TaskID(i)), got.Task(TaskID(i))
		if *a != *b {
			t.Errorf("task %d mismatch: %+v vs %+v", i, a, b)
		}
	}
	gt1, _ := got.TaskByName("t1")
	gt3, _ := got.TaskByName("t3")
	if got.Buffer(gt1.ID, gt3.ID) != 4 {
		t.Error("buffer capacity lost in round trip")
	}
}

func TestReadJSONErrors(t *testing.T) {
	cases := []string{
		`{"tasks": [{"name":"a","period":"bogus"}], "edges": []}`,
		`{"tasks": [{"name":"a","period":"5ms"},{"name":"a","period":"5ms"}], "edges": []}`,
		`{"tasks": [{"name":"a","period":"5ms"}], "edges": [{"src":"a","dst":"zz"}]}`,
		`{"tasks": [{"name":"a","period":"5ms"}], "edges": [{"src":"zz","dst":"a"}]}`,
		`{"tasks": [{"name":"a","period":"5ms","ecu":"nope"}], "edges": []}`,
		`{"ecus": [{"name":"e","kind":"quantum"}], "tasks": [], "edges": []}`,
		`{"tasks": [{"name":"a","period":"5ms","sem":"psychic"}], "edges": []}`,
		`{"ecus": [{"name":"e"},{"name":"e"}], "tasks": [], "edges": []}`,
		`{"unknown_field": 1}`,
		`not json`,
	}
	for _, in := range cases {
		if _, err := ReadJSON(strings.NewReader(in)); err == nil {
			t.Errorf("ReadJSON(%q): expected error", in)
		}
	}
}

func TestWriteDOT(t *testing.T) {
	g := Fig2Graph()
	var buf strings.Builder
	if err := g.WriteDOT(&buf); err != nil {
		t.Fatalf("WriteDOT: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"digraph", "cluster_0", `"t1"`, `"t3" -> "t5"`, "style=dashed"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
}

func TestSplitOverBus(t *testing.T) {
	g := NewGraph()
	e0 := g.AddECU("ecu0", Compute)
	e1 := g.AddECU("ecu1", Compute)
	bus := g.AddECU("can0", Bus)
	src := g.AddTask(Task{Name: "src", Period: 10 * ms, ECU: NoECU})
	a := g.AddTask(Task{Name: "a", WCET: ms, BCET: ms, Period: 10 * ms, Prio: 0, ECU: e0})
	b := g.AddTask(Task{Name: "b", WCET: ms, BCET: ms, Period: 20 * ms, Prio: 0, ECU: e1})
	c := g.AddTask(Task{Name: "c", WCET: ms, BCET: ms, Period: 20 * ms, Prio: 1, ECU: e1})
	mustEdge(g, src, a)
	mustEdge(g, a, b)
	mustEdge(g, b, c)

	msgs, err := g.SplitOverBus(bus, 100*timeu.Microsecond, 500*timeu.Microsecond)
	if err != nil {
		t.Fatalf("SplitOverBus: %v", err)
	}
	if len(msgs) != 1 {
		t.Fatalf("split %d edges, want 1 (only a->b crosses ECUs)", len(msgs))
	}
	m := g.Task(msgs[0].Task)
	if m.ECU != bus || m.Period != 10*ms || m.WCET != 500*timeu.Microsecond {
		t.Errorf("message task misconfigured: %+v", m)
	}
	if g.HasEdge(a, b) {
		t.Error("original cross-ECU edge not removed")
	}
	if !g.HasEdge(a, msgs[0].Task) || !g.HasEdge(msgs[0].Task, b) {
		t.Error("two-hop path not created")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("graph invalid after split: %v", err)
	}
	// src->a stays: src is unscheduled, not a cross-ECU hop.
	if !g.HasEdge(src, a) {
		t.Error("stimulus edge should be untouched")
	}
}

func TestSplitOverBusErrors(t *testing.T) {
	g := NewGraph()
	e0 := g.AddECU("ecu0", Compute)
	if _, err := g.SplitOverBus(e0, 0, 0); err == nil {
		t.Error("compute ECU accepted as bus")
	}
	if _, err := g.SplitOverBus(99, 0, 0); err == nil {
		t.Error("unknown ECU accepted as bus")
	}
	bus := g.AddECU("can0", Bus)
	if _, err := g.SplitOverBus(bus, 5, 2); err == nil {
		t.Error("inverted frame time range accepted")
	}
}

func TestECUAccessors(t *testing.T) {
	g := Fig2Graph()
	if got := g.ECUs(); len(got) != 1 || got[0].Name != "ecu0" {
		t.Errorf("ECUs = %v", got)
	}
	if Compute.String() != "compute" || Bus.String() != "bus" || ECUKind(9).String() != "ECUKind(9)" {
		t.Error("ECUKind.String broken")
	}
}

func TestSporadicHelpers(t *testing.T) {
	task := Task{Period: 10 * ms}
	if task.Sporadic() || task.MaxInterArrival() != 10*ms {
		t.Error("periodic task misclassified")
	}
	task.MaxPeriod = 25 * ms
	if !task.Sporadic() || task.MaxInterArrival() != 25*ms {
		t.Error("sporadic task misclassified")
	}
	// MaxPeriod == Period counts as periodic.
	task.MaxPeriod = 10 * ms
	if task.Sporadic() {
		t.Error("MaxPeriod == Period should be periodic")
	}

	g := Fig2Graph()
	g.Task(2).MaxPeriod = g.Task(2).Period - 1
	if err := g.Validate(); err == nil {
		t.Error("MaxPeriod below Period accepted")
	}
}
