package sim

import (
	"container/heap"
	"fmt"
	"math/rand"

	"repro/internal/model"
	"repro/internal/timeu"
)

// This file preserves the pre-pooling engine as a reference oracle. It is
// the straightforward implementation: container/heap event queues with
// interface{} boxing, a freshly allocated Job and Token per release, and
// sorted-stamp k-way merging (mergeStamps). The optimized engine in
// engine.go must produce BIT-IDENTICAL results — same Stats, same channel
// counters, same observer call sequence with the same field values, same
// rng consumption order — which the differential harness
// (internal/integration/sim_differential_test.go) enforces on hundreds of
// seeded workloads. When touching the fast engine, change semantics here
// first (or not at all): this implementation is the spec.

type refEventHeap []event

func (h refEventHeap) Len() int { return len(h) }
func (h refEventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	if h[i].kind != h[j].kind {
		return h[i].kind < h[j].kind
	}
	return h[i].seq < h[j].seq
}
func (h refEventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refEventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *refEventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// refReadyHeap orders pending jobs of one ECU by (priority, release,
// task, job index).
type refReadyHeap []readyJob

func (h refReadyHeap) Len() int { return len(h) }
func (h refReadyHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	if a.job.Release != b.job.Release {
		return a.job.Release < b.job.Release
	}
	if a.job.Task != b.job.Task {
		return a.job.Task < b.job.Task
	}
	return a.job.K < b.job.K
}
func (h refReadyHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refReadyHeap) Push(x interface{}) { *h = append(*h, x.(readyJob)) }
func (h *refReadyHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

type refEcuState struct {
	running *Job
	ready   refReadyHeap
}

type refEngine struct {
	g   *model.Graph
	cfg Config
	rng *rand.Rand

	events refEventHeap
	seq    int64

	ecus []refEcuState
	// chans lists all channels in edge order; ins and outs index them
	// per task.
	chans     []*channel
	ins, outs [][]*channel
	// pendingCount tracks queued-or-running jobs per task for overrun
	// detection.
	pendingCount []int
	nextK        []int64
	// pubQueue holds, per LET task, the tokens awaiting their publish
	// instants (FIFO: publish events fire in release order).
	pubQueue [][]pendingPublish

	// startObs and relObs are the observers that implement the optional
	// extension interfaces, resolved once at construction; release and
	// dispatch are per-event hot paths and must not repeat the type
	// assertions there.
	startObs []StartObserver
	relObs   []ReleaseObserver

	stats Stats
}

// RunReference simulates the graph with the reference engine. It is
// semantically identical to Run but allocates per job; it exists so
// differential tests can compare the optimized engine against the
// simplest possible implementation.
func RunReference(g *model.Graph, cfg Config) (*Stats, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := checkRun(g, cfg); err != nil {
		return nil, err
	}
	if cfg.Exec == nil {
		cfg.Exec = WCETExec{}
	}
	e := &refEngine{
		g:            g,
		cfg:          cfg,
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		ecus:         make([]refEcuState, g.NumECUs()),
		ins:          make([][]*channel, g.NumTasks()),
		outs:         make([][]*channel, g.NumTasks()),
		pendingCount: make([]int, g.NumTasks()),
		nextK:        make([]int64, g.NumTasks()),
		pubQueue:     make([][]pendingPublish, g.NumTasks()),
	}
	for _, obs := range cfg.Observers {
		if so, ok := obs.(StartObserver); ok {
			e.startObs = append(e.startObs, so)
		}
		if ro, ok := obs.(ReleaseObserver); ok {
			e.relObs = append(e.relObs, ro)
		}
	}
	for _, edge := range g.Edges() {
		ch := newChannel(edge.Cap)
		e.chans = append(e.chans, ch)
		e.outs[edge.Src] = append(e.outs[edge.Src], ch)
		e.ins[edge.Dst] = append(e.ins[edge.Dst], ch)
	}
	for i := 0; i < g.NumTasks(); i++ {
		t := g.Task(model.TaskID(i))
		e.push(event{time: firstRelease(cfg.Offsets, t), kind: evRelease, task: t.ID})
	}
	e.loop()
	for i, ch := range e.chans {
		e.stats.Channels = append(e.stats.Channels, ChannelStats{
			Edge:   g.Edges()[i],
			Writes: ch.writes,
			Reads:  ch.reads,
			Lost:   ch.lost,
		})
	}
	return &e.stats, nil
}

func (e *refEngine) push(ev event) {
	ev.seq = e.seq
	e.seq++
	heap.Push(&e.events, ev)
}

// loop processes events in batches per time instant: all finishes first
// (outputs become visible and ECUs turn idle), then all releases (jobs
// enqueue, stimuli publish), then one dispatch pass per ECU. This makes
// priority — not event insertion order — decide among jobs released at
// the same instant, and lets a job starting at t read every token written
// at or before t. Zero execution times can produce new finish events at
// the same instant; the inner loop re-batches until the instant drains.
func (e *refEngine) loop() {
	for len(e.events) > 0 {
		now := e.events[0].time
		if now > e.cfg.Horizon {
			return
		}
		e.stats.End = now
		for len(e.events) > 0 && e.events[0].time == now {
			for len(e.events) > 0 && e.events[0].time == now {
				ev := heap.Pop(&e.events).(event)
				switch ev.kind {
				case evRelease:
					e.release(ev.task, now)
				case evFinish:
					e.finish(ev.ecu, now)
				case evPublish:
					e.letPublish(ev.task, now)
				}
			}
			for i := range e.ecus {
				e.dispatch(model.ECUID(i), now)
			}
		}
	}
}

func (e *refEngine) release(task model.TaskID, now timeu.Time) {
	t := e.g.Task(task)
	k := e.nextK[task]
	e.nextK[task]++
	next := t.Period
	if t.Sporadic() {
		// Bounded sporadic arrivals: the next release falls uniformly in
		// [Period, MaxPeriod].
		next += timeu.Time(e.rng.Int63n(int64(t.MaxPeriod-t.Period) + 1))
	}
	e.push(event{time: now + next, kind: evRelease, task: task})

	for _, ro := range e.relObs {
		ro.JobReleased(task, k, now)
	}

	if t.ECU == model.NoECU {
		// External stimulus: produces its token instantly at release.
		j := &Job{Task: task, K: k, Release: now, Start: now, Finish: now}
		j.Out = &Token{Stamps: []Stamp{{Task: task, Min: now, Max: now}}}
		e.publish(j)
		return
	}

	if e.pendingCount[task] > 0 {
		e.stats.Overruns++
	}
	e.pendingCount[task]++
	j := &Job{Task: task, K: k, Release: now}
	if t.Sem == model.LET {
		// LET: inputs are read at release and the output is published at
		// the deadline, regardless of when the job executes.
		j.let = true
		tok := e.assembleToken(j)
		e.pubQueue[task] = append(e.pubQueue[task], pendingPublish{job: Job{
			Task: task, K: k, Release: now, Start: now, Finish: now + t.Period, Out: tok,
			EmptyInputs: j.EmptyInputs,
		}})
		e.push(event{time: now + t.Period, kind: evPublish, task: task})
	}
	es := &e.ecus[t.ECU]
	heap.Push(&es.ready, readyJob{job: j, prio: t.Prio})
}

// letPublish fires a LET task's deadline: the token assembled at release
// becomes visible and observers see the completed logical job.
func (e *refEngine) letPublish(task model.TaskID, now timeu.Time) {
	q := e.pubQueue[task]
	if len(q) == 0 {
		panic("sim: publish event without pending token")
	}
	e.pubQueue[task] = q[1:]
	j := q[0].job
	if j.Finish != now {
		panic("sim: publish event out of order")
	}
	e.publish(&j)
}

// assembleToken reads the job's input channels (implicit: at start; LET:
// at release) and builds the output token.
func (e *refEngine) assembleToken(j *Job) *Token {
	if e.g.IsSource(j.Task) {
		// A source stamps its output with its release time (t(J) = r(J)).
		return &Token{Stamps: []Stamp{{Task: j.Task, Min: j.Release, Max: j.Release}}}
	}
	tokens := make([]*Token, 0, len(e.ins[j.Task]))
	for _, ch := range e.ins[j.Task] {
		if tk := ch.read(); tk != nil {
			tokens = append(tokens, tk)
		} else {
			j.EmptyInputs++
		}
	}
	return &Token{Stamps: mergeStamps(tokens)}
}

// dispatch starts the highest-priority ready job if the ECU is idle.
func (e *refEngine) dispatch(ecu model.ECUID, now timeu.Time) {
	es := &e.ecus[ecu]
	if es.running != nil || es.ready.Len() == 0 {
		return
	}
	rj := heap.Pop(&es.ready).(readyJob)
	j := rj.job
	t := e.g.Task(j.Task)
	j.Start = now

	// Implicit communication reads all input channels now; a LET job
	// already read them at release and only occupies the processor here.
	if !j.let {
		j.Out = e.assembleToken(j)
	}

	for _, so := range e.startObs {
		so.JobStarted(j)
	}

	exec := e.cfg.Exec.Sample(t, e.rng)
	if exec < t.BCET || exec > t.WCET {
		panic(fmt.Sprintf("sim: exec model %s returned %v outside [%v,%v] for %s",
			e.cfg.Exec.Name(), exec, t.BCET, t.WCET, t.Name))
	}
	j.Finish = j.Start + exec
	es.running = j
	e.push(event{time: j.Finish, kind: evFinish, ecu: ecu})
}

func (e *refEngine) finish(ecu model.ECUID, now timeu.Time) {
	es := &e.ecus[ecu]
	j := es.running
	es.running = nil
	e.pendingCount[j.Task]--
	if j.let {
		// The logical job completes at its publish instant, not here.
		return
	}
	e.publish(j)
}

// publish writes the job's token to all output channels and notifies
// observers.
func (e *refEngine) publish(j *Job) {
	for _, ch := range e.outs[j.Task] {
		ch.write(j.Out)
	}
	e.stats.Jobs++
	for _, obs := range e.cfg.Observers {
		obs.JobFinished(j)
	}
}
