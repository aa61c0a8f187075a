// Package model defines the cause-effect graph studied by the paper: a DAG
// of periodic tasks statically mapped onto ECUs, communicating through
// bounded channels with implicit (read-at-start / write-at-finish)
// semantics.
//
// The model follows §II of the paper:
//
//   - each vertex is a task (W, B, T): worst-case execution time, best-case
//     execution time, and period;
//   - each edge is a channel, by default a size-1 overwrite register;
//   - each task is statically mapped to an ECU; tasks on the same ECU are
//     scheduled by non-preemptive fixed priority;
//   - communication between ECUs is modeled as a periodic task on a bus ECU;
//   - source tasks (no predecessors) have W = B = 0 and act as external
//     stimuli whose output tokens are stamped with their release times.
package model

import (
	"cmp"
	"container/heap"
	"errors"
	"fmt"
	"maps"
	"slices"

	"repro/internal/timeu"
)

// TaskID identifies a task within a Graph. IDs are dense indices assigned
// in insertion order.
type TaskID int

// ECUID identifies a processing unit (or bus) within a Graph.
type ECUID int

// NoECU marks a task that is not scheduled on any processing unit; only
// source tasks (external stimuli) may carry it.
const NoECU ECUID = -1

// ECUKind distinguishes compute units from communication buses. Both
// schedule their load non-preemptively by fixed priority; the distinction
// is purely descriptive (a bus's "tasks" are message frames).
type ECUKind int

const (
	// Compute is a processing unit executing software tasks.
	Compute ECUKind = iota
	// Bus is a communication medium (e.g. CAN) whose tasks are frames.
	Bus
)

// String returns "compute" or "bus".
func (k ECUKind) String() string {
	switch k {
	case Compute:
		return "compute"
	case Bus:
		return "bus"
	default:
		return fmt.Sprintf("ECUKind(%d)", int(k))
	}
}

// ECU is a processing unit or bus hosting a set of tasks.
type ECU struct {
	ID   ECUID
	Name string
	Kind ECUKind
}

// Semantics selects a task's communication timing.
type Semantics int

const (
	// Implicit is the paper's (and AUTOSAR's default) semantics: inputs
	// are read when a job starts executing, outputs written when it
	// finishes.
	Implicit Semantics = iota
	// LET is the Logical Execution Time paradigm: inputs are read at the
	// job's release and outputs published exactly at its deadline
	// (release + period), making data flow independent of scheduling and
	// execution times. It trades latency for determinism.
	LET
)

// String names the semantics.
func (s Semantics) String() string {
	switch s {
	case Implicit:
		return "implicit"
	case LET:
		return "let"
	default:
		return fmt.Sprintf("Semantics(%d)", int(s))
	}
}

// Task is one vertex of the cause-effect graph. The zero Offset releases
// the first job at system start; analyses are offset-oblivious (the paper's
// bounds hold for arbitrary offsets) but the simulator honors Offset.
type Task struct {
	ID   TaskID
	Name string

	// WCET and BCET bound the execution time of every job. Source tasks
	// have WCET = BCET = 0.
	WCET timeu.Time
	BCET timeu.Time

	// Period separates consecutive job releases.
	Period timeu.Time

	// Deadline is the relative deadline each job must finish by. Zero
	// selects the implicit deadline (= Period); otherwise it must lie in
	// [WCET, Period] (constrained deadlines).
	Deadline timeu.Time

	// MaxPeriod, when set, makes the task sporadic with bounded
	// inter-arrival times in [Period, MaxPeriod] (Period remains the
	// minimum separation used by the response-time analysis). Zero means
	// strictly periodic. Sporadic releases void Theorem 2's
	// release-alignment argument, so the analysis falls back to
	// Theorem-1-style bounds (without same-head flooring) for pairs
	// involving sporadic tasks.
	MaxPeriod timeu.Time

	// Offset delays the first release relative to system start.
	Offset timeu.Time

	// Prio orders tasks on one ECU: smaller value = higher priority.
	Prio int

	// ECU is the processing unit the task is statically mapped to, or
	// NoECU for unscheduled external stimuli.
	ECU ECUID

	// Sem selects the communication timing (implicit by default). For
	// unscheduled stimuli the distinction is immaterial: they publish at
	// release either way.
	Sem Semantics
}

// Edge is a directed channel from Src to Dst. Cap is the buffer capacity:
// 1 is the paper's default overwrite register; larger values are the FIFO
// buffers introduced by the optimization of §IV.
type Edge struct {
	Src, Dst TaskID
	Cap      int
}

// Graph is a cause-effect graph: tasks, channels, and ECUs. Build one with
// NewGraph, AddECU, AddTask, and AddEdge, then call Validate (or use the
// higher-level builder in the public package, which validates for you).
type Graph struct {
	tasks []Task
	ecus  []ECU
	edges []Edge

	// edgeIdx maps edgeKey(src, dst) to the edge's index in edges.
	edgeIdx map[uint64]int

	// adjacency, rebuilt lazily by ensureAdj.
	succ, pred [][]TaskID
	adjValid   bool
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{edgeIdx: make(map[uint64]int)}
}

// edgeKey packs an edge's endpoints into one map key, src in the high
// 32 bits and dst in the low. Two valid pairs never share a key, since a
// graph holds fewer than 2^32 tasks; callers look up only pairs that
// valid accepts, so an out-of-range ID such as src + 1<<32 cannot alias
// a real edge.
func edgeKey(src, dst TaskID) uint64 { return uint64(src)<<32 | uint64(uint32(dst)) }

// AddECU registers a processing unit and returns its ID. An empty name
// gets the default "ecuN".
func (g *Graph) AddECU(name string, kind ECUKind) ECUID {
	id := ECUID(len(g.ecus))
	if name == "" {
		name = fmt.Sprintf("ecu%d", id)
	}
	g.ecus = append(g.ecus, ECU{ID: id, Name: name, Kind: kind})
	return id
}

// AddTask adds a task and returns its ID. The ID field of the argument is
// ignored and assigned by the graph.
func (g *Graph) AddTask(t Task) TaskID {
	t.ID = TaskID(len(g.tasks))
	if t.Name == "" {
		t.Name = fmt.Sprintf("task%d", t.ID)
	}
	g.tasks = append(g.tasks, t)
	g.adjValid = false
	return t.ID
}

// AddEdge adds a channel from src to dst with capacity 1.
func (g *Graph) AddEdge(src, dst TaskID) error { return g.AddBufferedEdge(src, dst, 1) }

// AddBufferedEdge adds a channel from src to dst with the given capacity.
func (g *Graph) AddBufferedEdge(src, dst TaskID, capacity int) error {
	if !g.valid(src) || !g.valid(dst) {
		return fmt.Errorf("model: edge (%d,%d) references unknown task", src, dst)
	}
	if src == dst {
		return fmt.Errorf("model: self-loop on task %d", src)
	}
	if capacity < 1 {
		return fmt.Errorf("model: edge (%d,%d) capacity %d < 1", src, dst, capacity)
	}
	key := edgeKey(src, dst)
	if _, dup := g.edgeIdx[key]; dup {
		return fmt.Errorf("model: duplicate edge (%s,%s)", g.tasks[src].Name, g.tasks[dst].Name)
	}
	g.edgeIdx[key] = len(g.edges)
	g.edges = append(g.edges, Edge{Src: src, Dst: dst, Cap: capacity})
	g.adjValid = false
	return nil
}

// SetBuffer resizes the channel from src to dst; it is how Algorithm 1's
// decision is applied to a graph.
func (g *Graph) SetBuffer(src, dst TaskID, capacity int) error {
	i, ok := g.edge(src, dst)
	if !ok {
		return fmt.Errorf("model: no edge (%d,%d)", src, dst)
	}
	if capacity < 1 {
		return fmt.Errorf("model: capacity %d < 1", capacity)
	}
	g.edges[i].Cap = capacity
	return nil
}

// Buffer reports the capacity of the channel from src to dst (0 if the
// edge does not exist, or either ID is out of range). It is one lookup
// in a map keyed by the endpoints packed into a uint64.
func (g *Graph) Buffer(src, dst TaskID) int {
	if i, ok := g.edge(src, dst); ok {
		return g.edges[i].Cap
	}
	return 0
}

// edge returns the index in edges of the channel from src to dst, if
// both IDs are in range and the channel exists.
func (g *Graph) edge(src, dst TaskID) (int, bool) {
	if !g.valid(src) || !g.valid(dst) {
		return 0, false
	}
	i, ok := g.edgeIdx[edgeKey(src, dst)]
	return i, ok
}

func (g *Graph) valid(id TaskID) bool { return id >= 0 && int(id) < len(g.tasks) }

// NumTasks returns the number of tasks.
func (g *Graph) NumTasks() int { return len(g.tasks) }

// NumEdges returns the number of channels.
func (g *Graph) NumEdges() int { return len(g.edges) }

// NumECUs returns the number of registered ECUs.
func (g *Graph) NumECUs() int { return len(g.ecus) }

// Task returns the task with the given ID. It panics on an unknown ID,
// mirroring slice indexing.
func (g *Graph) Task(id TaskID) *Task { return &g.tasks[id] }

// EffectiveDeadline returns the task's relative deadline: Deadline when
// set, Period otherwise (implicit deadlines).
func (t *Task) EffectiveDeadline() timeu.Time {
	if t.Deadline != 0 {
		return t.Deadline
	}
	return t.Period
}

// Sporadic reports whether the task's releases may drift apart
// (MaxPeriod > Period).
func (t *Task) Sporadic() bool { return t.MaxPeriod > t.Period }

// MaxInterArrival returns the largest separation between consecutive
// releases: MaxPeriod for sporadic tasks, Period otherwise.
func (t *Task) MaxInterArrival() timeu.Time {
	if t.Sporadic() {
		return t.MaxPeriod
	}
	return t.Period
}

// TaskByName returns the first task with the given name.
func (g *Graph) TaskByName(name string) (*Task, bool) {
	for i := range g.tasks {
		if g.tasks[i].Name == name {
			return &g.tasks[i], true
		}
	}
	return nil, false
}

// Tasks returns the tasks in ID order. The slice aliases graph storage and
// must not be appended to.
func (g *Graph) Tasks() []Task { return g.tasks }

// ECU returns the ECU with the given ID.
func (g *Graph) ECU(id ECUID) *ECU { return &g.ecus[id] }

// ECUs returns the ECUs in ID order.
func (g *Graph) ECUs() []ECU { return g.ecus }

// Edges returns the channels in insertion order.
func (g *Graph) Edges() []Edge { return g.edges }

// HasEdge reports whether a channel from src to dst exists.
func (g *Graph) HasEdge(src, dst TaskID) bool {
	_, ok := g.edge(src, dst)
	return ok
}

// ensureAdj rebuilds succ and pred, each list sorted by ID, as
// capacity-capped windows of two flat arrays. Two linear passes sort
// them without comparisons: scanning the successor buckets in ascending
// source order appends every predecessor list in order, and scanning
// those in ascending destination order then refills the successor lists
// in order.
func (g *Graph) ensureAdj() {
	if g.adjValid {
		return
	}
	n, m := len(g.tasks), len(g.edges)
	deg := make([]int, 2*n) // out-degrees, then in-degrees
	for _, e := range g.edges {
		deg[e.Src]++
		deg[n+int(e.Dst)]++
	}
	flat := make([]TaskID, 2*m)
	g.succ, g.pred = windows(flat[:m], deg[:n]), windows(flat[m:], deg[n:])
	for _, e := range g.edges {
		g.succ[e.Src] = append(g.succ[e.Src], e.Dst)
	}
	for v, out := range g.succ {
		for _, w := range out {
			g.pred[w] = append(g.pred[w], TaskID(v))
		}
		g.succ[v] = out[:0]
	}
	for w, in := range g.pred {
		for _, v := range in {
			g.succ[v] = append(g.succ[v], TaskID(w))
		}
	}
	g.adjValid = true
}

// windows cuts flat into len(deg) empty slices, the i-th with capacity
// deg[i], so appending to one never spills into the next.
func windows(flat []TaskID, deg []int) [][]TaskID {
	out := make([][]TaskID, len(deg))
	off := 0
	for i, d := range deg {
		out[i] = flat[off : off : off+d]
		off += d
	}
	return out
}

// Successors returns the tasks reading from id's output channels.
func (g *Graph) Successors(id TaskID) []TaskID {
	g.ensureAdj()
	return g.succ[id]
}

// Predecessors returns the tasks writing to id's input channels.
func (g *Graph) Predecessors(id TaskID) []TaskID {
	g.ensureAdj()
	return g.pred[id]
}

// IsSource reports whether the task has no incoming channels.
func (g *Graph) IsSource(id TaskID) bool { return len(g.Predecessors(id)) == 0 }

// IsSink reports whether the task has no outgoing channels.
func (g *Graph) IsSink(id TaskID) bool { return len(g.Successors(id)) == 0 }

// Sources returns all tasks with no incoming channels, in ID order.
func (g *Graph) Sources() []TaskID {
	var out []TaskID
	for i := range g.tasks {
		if g.IsSource(TaskID(i)) {
			out = append(out, TaskID(i))
		}
	}
	return out
}

// Sinks returns all tasks with no outgoing channels, in ID order.
func (g *Graph) Sinks() []TaskID {
	var out []TaskID
	for i := range g.tasks {
		if g.IsSink(TaskID(i)) {
			out = append(out, TaskID(i))
		}
	}
	return out
}

// TasksOnECU returns the IDs of tasks mapped to the given ECU, in ID order.
func (g *Graph) TasksOnECU(ecu ECUID) []TaskID {
	var out []TaskID
	for i := range g.tasks {
		if g.tasks[i].ECU == ecu {
			out = append(out, TaskID(i))
		}
	}
	return out
}

// TasksByECU groups the scheduled tasks by ECU in one pass: entry e lists
// the IDs of the tasks mapped to ECU e, in ID order (empty for an ECU
// without tasks). Unscheduled stimuli and tasks referencing an unknown
// ECU appear in no entry. The grouping is built fresh on every call, not
// cached, because the tasks Task returns are mutable; callers may reorder
// the returned slices.
func (g *Graph) TasksByECU() [][]TaskID {
	count := make([]int, len(g.ecus))
	scheduled := 0
	for i := range g.tasks {
		if e := g.tasks[i].ECU; e >= 0 && int(e) < len(g.ecus) {
			count[e]++
			scheduled++
		}
	}
	// One backing array, each ECU's entry a capacity-capped window of it.
	out := windows(make([]TaskID, scheduled), count)
	for i := range g.tasks {
		if e := g.tasks[i].ECU; e >= 0 && int(e) < len(g.ecus) {
			out[e] = append(out[e], TaskID(i))
		}
	}
	return out
}

// SortByPriority sorts task IDs by (Prio, ID): highest priority first,
// equal priorities in ID order. When every priority fits an int32 and
// every ID a uint32, it sorts one packed int64 per task, Prio<<32 + ID,
// whose order is the (Prio, ID) order, with slices.Sort and no
// comparator; the keys of up to 128 tasks live on the stack. Otherwise
// it sorts with a comparator that reads both fields.
func (g *Graph) SortByPriority(ids []TaskID) {
	var stack [sortStack]int64
	keys := stack[:0]
	if len(ids) > len(stack) {
		keys = make([]int64, 0, len(ids))
	}
	for _, id := range ids {
		p := g.tasks[id].Prio
		if p != int(int32(p)) || id != TaskID(uint32(id)) {
			slices.SortFunc(ids, func(a, b TaskID) int {
				if c := cmp.Compare(g.tasks[a].Prio, g.tasks[b].Prio); c != 0 {
					return c
				}
				return cmp.Compare(a, b)
			})
			return
		}
		keys = append(keys, int64(p)<<32|int64(id))
	}
	slices.Sort(keys)
	for i, k := range keys {
		ids[i] = TaskID(uint32(k))
	}
}

// sortStack is how many tasks SortByPriority sorts without allocating.
const sortStack = 128

// HigherPriority reports whether task a has higher priority than task b
// and both live on the same ECU — the hp(·) relation of the paper.
func (g *Graph) HigherPriority(a, b TaskID) bool {
	ta, tb := &g.tasks[a], &g.tasks[b]
	return ta.ECU != NoECU && ta.ECU == tb.ECU && ta.Prio < tb.Prio
}

// SameECU reports whether two tasks are mapped to the same processing
// unit. Tasks with NoECU are never on the same ECU, not even each other's.
func (g *Graph) SameECU(a, b TaskID) bool {
	ea, eb := g.tasks[a].ECU, g.tasks[b].ECU
	return ea != NoECU && ea == eb
}

// errCycle is the error of a graph that is not a DAG.
var errCycle = errors.New("model: graph has a cycle")

// TopoOrder returns a topological order of the tasks, or an error if the
// graph has a cycle. Among the tasks ready at each step the smallest ID
// comes first, so the order is deterministic.
func (g *Graph) TopoOrder() ([]TaskID, error) {
	g.ensureAdj()
	n := len(g.tasks)
	indeg := make([]int, n)
	for _, e := range g.edges {
		indeg[e.Dst]++
	}
	ready := make(idHeap, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, TaskID(i))
		}
	}
	// Pushed in increasing ID order, so ready is already a valid heap.
	order := make([]TaskID, 0, n)
	for len(ready) > 0 {
		v := heap.Pop(&ready).(TaskID)
		order = append(order, v)
		for _, s := range g.succ[v] {
			indeg[s]--
			if indeg[s] == 0 {
				heap.Push(&ready, s)
			}
		}
	}
	if len(order) != n {
		return nil, errCycle
	}
	return order, nil
}

// idHeap is a min-heap of task IDs (container/heap).
type idHeap []TaskID

func (h idHeap) Len() int           { return len(h) }
func (h idHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h idHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *idHeap) Push(x any)        { *h = append(*h, x.(TaskID)) }
func (h *idHeap) Pop() any {
	old := *h
	v := old[len(old)-1]
	*h = old[:len(old)-1]
	return v
}

// acyclic reports whether the graph is a DAG: Kahn's algorithm over the
// adjacency windows, in one linear pass that counts the tasks it
// removes but keeps no order, so any ready task may go next.
func (g *Graph) acyclic() bool {
	g.ensureAdj()
	n := len(g.tasks)
	indeg := make([]int32, n)
	ready := make([]TaskID, 0, n)
	for i := range indeg {
		if indeg[i] = int32(len(g.pred[i])); indeg[i] == 0 {
			ready = append(ready, TaskID(i))
		}
	}
	removed := 0
	for len(ready) > 0 {
		v := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		removed++
		for _, s := range g.succ[v] {
			if indeg[s]--; indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	return removed == n
}

// Validate checks structural invariants: acyclicity, positive periods,
// 0 ≤ BCET ≤ WCET, W = B = 0 for unscheduled stimulus tasks (which must
// also be sources), ECU references in range,
// priorities unique per ECU, and WCET ≤ period (a necessary condition for
// the paper's schedulability assumption R(τ) ≤ T(τ)).
func (g *Graph) Validate() error {
	for i := range g.tasks {
		t := &g.tasks[i]
		if t.Period <= 0 {
			return fmt.Errorf("model: task %s has non-positive period %v", t.Name, t.Period)
		}
		if t.BCET < 0 || t.WCET < t.BCET {
			return fmt.Errorf("model: task %s has invalid execution bounds [%v,%v]", t.Name, t.BCET, t.WCET)
		}
		if t.WCET > t.Period {
			return fmt.Errorf("model: task %s has WCET %v > period %v", t.Name, t.WCET, t.Period)
		}
		if t.Deadline != 0 && (t.Deadline < t.WCET || t.Deadline > t.Period) {
			return fmt.Errorf("model: task %s has deadline %v outside [WCET %v, period %v]",
				t.Name, t.Deadline, t.WCET, t.Period)
		}
		if t.MaxPeriod != 0 && t.MaxPeriod < t.Period {
			return fmt.Errorf("model: task %s has max period %v below period %v",
				t.Name, t.MaxPeriod, t.Period)
		}
		if t.Offset < 0 {
			return fmt.Errorf("model: task %s has negative offset %v", t.Name, t.Offset)
		}
		if t.ECU != NoECU && (t.ECU < 0 || int(t.ECU) >= len(g.ecus)) {
			return fmt.Errorf("model: task %s references unknown ECU %d", t.Name, t.ECU)
		}
		if t.ECU == NoECU {
			if t.WCET != 0 || t.BCET != 0 {
				return fmt.Errorf("model: unscheduled task %s must have WCET = BCET = 0 (has [%v,%v])", t.Name, t.BCET, t.WCET)
			}
			if !g.IsSource(TaskID(i)) {
				return fmt.Errorf("model: unscheduled task %s has predecessors; only external stimuli may omit an ECU", t.Name)
			}
		}
	}
	// Priorities must totally order the tasks of each ECU. Sorted by
	// (Prio, ID), a shared priority shows as adjacent equal entries; of
	// all such runs, report the one whose second task has the smallest
	// ID, as a scan in ID order would meet it first.
	first, dup := TaskID(-1), TaskID(-1)
	for _, ids := range g.TasksByECU() {
		g.SortByPriority(ids)
		for k := 1; k < len(ids); k++ {
			p := g.tasks[ids[k]].Prio
			second := p == g.tasks[ids[k-1]].Prio && (k == 1 || p != g.tasks[ids[k-2]].Prio)
			if second && (dup < 0 || ids[k] < dup) {
				first, dup = ids[k-1], ids[k]
			}
		}
	}
	if dup >= 0 {
		t := &g.tasks[dup]
		return fmt.Errorf("model: tasks %s and %s share priority %d on ECU %d",
			g.tasks[first].Name, t.Name, t.Prio, t.ECU)
	}
	if !g.acyclic() {
		return errCycle
	}
	return nil
}

// Clone returns a deep copy of the graph. Mutating the clone (e.g. its
// buffer sizes, as Algorithm 1 does) leaves the original untouched.
func (g *Graph) Clone() *Graph {
	return &Graph{
		tasks:   append([]Task(nil), g.tasks...),
		ecus:    append([]ECU(nil), g.ecus...),
		edges:   append([]Edge(nil), g.edges...),
		edgeIdx: maps.Clone(g.edgeIdx),
	}
}

// Hyperperiod returns the LCM of all task periods.
func (g *Graph) Hyperperiod() timeu.Time {
	periods := make([]timeu.Time, len(g.tasks))
	for i := range g.tasks {
		periods[i] = g.tasks[i].Period
	}
	return timeu.Hyperperiod(periods)
}

// HyperperiodChecked returns the LCM of all task periods with explicit
// errors instead of panics: int64 overflow (many coprime periods) and,
// when horizon is positive, hyperperiods beyond the horizon are
// reported rather than computed wrong. Callers that need a cyclic
// window inside a simulated span (jump-ahead, auto horizons) use this
// form and fall back when it errors.
func (g *Graph) HyperperiodChecked(horizon timeu.Time) (timeu.Time, error) {
	periods := make([]timeu.Time, len(g.tasks))
	for i := range g.tasks {
		periods[i] = g.tasks[i].Period
	}
	return timeu.HyperperiodChecked(periods, horizon)
}
