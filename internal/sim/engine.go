package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/model"
	"repro/internal/timeu"
	"repro/internal/trace/span"
)

// Job is one execution instance of a task. Observers receive the job
// after it finishes, with all fields filled in.
type Job struct {
	Task    model.TaskID
	K       int64 // job index, 0-based
	Release timeu.Time
	Start   timeu.Time
	Finish  timeu.Time
	// Out is the token the job wrote to its output channels (also set for
	// sink tasks, which write nowhere). Its stamps were assembled from
	// the input channels when the job started.
	Out *Token
	// EmptyInputs counts input channels that were empty at start; data
	// from those predecessors is missing from Out (warm-up effect).
	EmptyInputs int

	// let marks the ECU-execution half of a LET job, which publishes
	// nothing itself (the publish event does).
	let bool
}

// Observer is notified as the simulation progresses. Implementations
// must not retain Job or Token pointers beyond the call — both are
// pooled and recycled as soon as the callback returns.
type Observer interface {
	JobFinished(j *Job)
}

// StartObserver is an optional extension for observers that also need
// start events (e.g. trace capture).
type StartObserver interface {
	JobStarted(j *Job)
}

// ReleaseObserver is an optional extension for release events.
type ReleaseObserver interface {
	JobReleased(task model.TaskID, k int64, release timeu.Time)
}

// Config parameterizes a simulation run.
type Config struct {
	// Horizon is the simulated time span; events at t ≤ Horizon are
	// processed. Must be positive.
	Horizon timeu.Time
	// Exec draws job execution times; defaults to WCETExec.
	Exec ExecModel
	// Seed seeds the run's private random source.
	Seed int64
	// Observers receive job completions.
	Observers []Observer
	// Offsets, when non-nil, overrides every task's release offset for
	// this run (indexed by task ID, length NumTasks). Batch runs use it
	// to vary offsets without mutating the shared graph.
	Offsets []timeu.Time
	// DisableJumpAhead forces full execution even when steady-state
	// jump-ahead (see cycle.go) would be sound. Results are identical
	// either way; this exists for differential testing and debugging.
	DisableJumpAhead bool
	// Trace, when non-nil, records engine-level spans on this track: one
	// "sim.run" span per Run plus sampled "sim.chunk" spans every 65536
	// finished jobs (traceChunk), so long runs show internal progress in
	// the trace viewer without per-job overhead. Disabled tracing costs
	// one nil check per finished job.
	Trace *span.Track
}

// traceChunk is the "sim.chunk" span sampling granularity in finished
// jobs.
const traceChunk = 1 << 16

// Stats summarizes a finished run.
type Stats struct {
	// Jobs counts finished jobs (source stimuli included).
	Jobs int64
	// Overruns counts releases that occurred while a previous job of the
	// same task was still pending or running. A schedulable system under
	// the paper's assumptions has none.
	Overruns int64
	// End is the time of the last processed event.
	End timeu.Time
	// Channels reports per-edge token flow, in the graph's edge order.
	// Lost tokens (evicted before any read) quantify §IV's observation
	// that oversampling wastes computation: a producer faster than its
	// consumer drops most of its outputs.
	Channels []ChannelStats
}

// ChannelStats is the token flow of one edge during a run.
type ChannelStats struct {
	Edge model.Edge
	// Writes and Reads count write and head-read operations; Lost counts
	// tokens evicted without ever having been read.
	Writes, Reads, Lost int64
}

// event kinds, ordered so that releases at time t are processed after
// finishes at time t: a job finishing exactly when another is released
// makes its output visible to that release (finish writes happen first).
const (
	evFinish = iota
	evPublish
	evRelease
)

type event struct {
	time timeu.Time
	kind int
	seq  int64 // FIFO tie-break for determinism
	task model.TaskID
	ecu  model.ECUID
}

// readyJob is one pending job in an ECU's ready queue.
type readyJob struct {
	job  *Job
	prio int
}

type ecuState struct {
	running *Job
	ready   readyHeap4
}

// pendingPublish is a fully-formed LET job awaiting its publish instant.
type pendingPublish struct {
	job Job
}

// pubFIFO queues a LET task's pending publishes. Publishes fire in
// release order, so a head index suffices; draining the queue resets
// the slice in place, keeping the steady state allocation-free.
type pubFIFO struct {
	slots []pendingPublish
	head  int
}

// taskInfo flattens the per-task parameters the event loop touches on
// every release into one cache-friendly record, avoiding the pointer
// chase into model.Graph per event. Offsets are deliberately absent:
// they are re-read from the graph at every Run so callers can
// re-randomize them between runs.
type taskInfo struct {
	period timeu.Time
	// sporadicSpan is MaxPeriod−Period+1 for sporadic tasks (the width
	// of the uniform inter-arrival draw), 0 for strictly periodic ones.
	sporadicSpan int64
	prio         int
	ecu          model.ECUID
	let          bool
	stimulus     bool // ECU == NoECU: publishes instantly at release
	isSource     bool
}

// Engine is a reusable simulator instance for one task graph. NewEngine
// performs the per-graph setup (channel topology, origin indexing, pool
// priming); Run resets the dynamic state and simulates one configured
// horizon, so sweeps that simulate the same graph many times — e.g.
// internal/exp's OffsetsPerGraph loop — amortize the setup and reuse
// the pools' steady-state populations across runs. Task offsets are
// re-read from the graph at each Run, so callers may re-randomize them
// between runs.
//
// An Engine is single-goroutine: one Run at a time.
type Engine struct {
	g   *model.Graph
	cfg Config
	rng *rand.Rand

	// events holds only finish and LET-publish events — O(ECUs + LET
	// tasks) live entries. Releases, which the reference engine also
	// keeps here, live in the releases calendar (one entry per task).
	events   eventHeap4
	releases releaseQueue
	seq      int64

	ecus []ecuState
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
	pubQueue []pubFIFO

	// startObs and relObs are the observers that implement the optional
	// extension interfaces, resolved once per Run; release and dispatch
	// are per-event hot paths and must not repeat the type assertions
	// there.
	startObs []StartObserver
	relObs   []ReleaseObserver

	jobs jobPool
	toks tokenPool

	// info caches the static per-task parameters the hot path reads on
	// every event (see taskInfo).
	info []taskInfo

	// Chunk-span sampling state (see Config.Trace). chunkLeft counts
	// down finished jobs; at zero the open chunk span is closed and a
	// new one started.
	chunkSpan span.Span
	chunkLeft int64

	// Flat stamp-merge scratch, indexed by origin slot. origins lists
	// the tasks that can ever appear in a stamp (external stimuli and
	// sources) in ascending task order; originIdx maps task ID → origin
	// slot. Token assembly marks slots seen this merge with a fresh
	// epoch value instead of clearing the arrays.
	origins   []model.TaskID
	originIdx []int32
	minT      []timeu.Time
	maxT      []timeu.Time
	epoch     []uint64
	curEpoch  uint64

	// cyc is the steady-state cycle detector (see cycle.go). When armed
	// it fingerprints the engine at hyperperiod boundaries and jumps
	// over repeated cycles; costs one bool check per event batch when
	// disarmed.
	cyc cycleState

	stats Stats
}

// NewEngine validates the graph and builds a reusable engine for it.
func NewEngine(g *model.Graph) (*Engine, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		g:            g,
		ecus:         make([]ecuState, g.NumECUs()),
		ins:          make([][]*channel, g.NumTasks()),
		outs:         make([][]*channel, g.NumTasks()),
		pendingCount: make([]int, g.NumTasks()),
		nextK:        make([]int64, g.NumTasks()),
		pubQueue:     make([]pubFIFO, g.NumTasks()),
		originIdx:    make([]int32, g.NumTasks()),
		info:         make([]taskInfo, g.NumTasks()),
	}
	e.cyc.periods = make([]timeu.Time, g.NumTasks())
	for i := range e.info {
		t := g.Task(model.TaskID(i))
		ti := &e.info[i]
		ti.period = t.Period
		e.cyc.periods[i] = t.Period
		if t.Sporadic() {
			ti.sporadicSpan = int64(t.MaxPeriod-t.Period) + 1
		}
		ti.prio = t.Prio
		ti.ecu = t.ECU
		ti.let = t.Sem == model.LET
		ti.stimulus = t.ECU == model.NoECU
		ti.isSource = g.IsSource(model.TaskID(i))
	}
	for _, edge := range g.Edges() {
		ch := newChannel(edge.Cap)
		ch.pool = &e.toks
		e.chans = append(e.chans, ch)
		e.outs[edge.Src] = append(e.outs[edge.Src], ch)
		e.ins[edge.Dst] = append(e.ins[edge.Dst], ch)
	}
	// Stamps are created only by external stimuli and source tasks, and
	// merging never introduces new tasks, so these are the only task IDs
	// a stamp can carry.
	for i := 0; i < g.NumTasks(); i++ {
		id := model.TaskID(i)
		if g.Task(id).ECU == model.NoECU || g.IsSource(id) {
			e.originIdx[i] = int32(len(e.origins))
			e.origins = append(e.origins, id)
		} else {
			e.originIdx[i] = -1
		}
	}
	e.minT = make([]timeu.Time, len(e.origins))
	e.maxT = make([]timeu.Time, len(e.origins))
	e.epoch = make([]uint64, len(e.origins))
	return e, nil
}

// Run simulates the graph for cfg.Horizon of simulated time and returns
// aggregate statistics. Observers in cfg collect everything else. The
// returned Stats is a fresh value; it stays valid across further Runs.
func (e *Engine) Run(cfg Config) (*Stats, error) {
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("sim: non-positive horizon %v", cfg.Horizon)
	}
	if cfg.Exec == nil {
		cfg.Exec = WCETExec{}
	}
	if cfg.Offsets != nil && len(cfg.Offsets) != e.g.NumTasks() {
		return nil, fmt.Errorf("sim: %d offsets for %d tasks", len(cfg.Offsets), e.g.NumTasks())
	}
	runSpan := cfg.Trace.Start("sim.run")
	e.reset(cfg) // starts the first chunk span, nested under runSpan
	e.loop()
	if cfg.Trace != nil {
		e.chunkSpan.End(span.Int("jobs", traceChunk-e.chunkLeft))
		e.chunkSpan = span.Span{}
		runSpan.End(span.Int("jobs", e.stats.Jobs), span.Int("seed", cfg.Seed))
	}
	stats := e.stats
	stats.Channels = make([]ChannelStats, len(e.chans))
	for i, ch := range e.chans {
		stats.Channels[i] = ChannelStats{
			Edge:   e.g.Edges()[i],
			Writes: ch.writes,
			Reads:  ch.reads,
			Lost:   ch.lost,
		}
	}
	return &stats, nil
}

// reset clears all dynamic state from a previous run and schedules the
// initial releases from the graph's current offsets.
func (e *Engine) reset(cfg Config) {
	e.cfg = cfg
	if e.rng == nil {
		e.rng = rand.New(rand.NewSource(cfg.Seed))
	} else {
		// Reseeding restarts the exact stream a fresh source would draw.
		e.rng.Seed(cfg.Seed)
	}
	e.stats = Stats{}
	e.seq = 0
	e.events.clear()
	e.releases.clear()
	for i := range e.ecus {
		e.ecus[i].running = nil
		e.ecus[i].ready.clear()
	}
	for _, ch := range e.chans {
		ch.reset()
	}
	for i := range e.pendingCount {
		e.pendingCount[i] = 0
		e.nextK[i] = 0
	}
	for i := range e.pubQueue {
		q := &e.pubQueue[i]
		for k := q.head; k < len(q.slots); k++ {
			if out := q.slots[k].job.Out; out != nil {
				e.toks.release(out)
				q.slots[k].job.Out = nil
			}
		}
		q.slots = q.slots[:0]
		q.head = 0
	}
	e.chunkLeft = traceChunk
	e.chunkSpan = cfg.Trace.Start("sim.chunk") // zero Span when tracing is off
	e.startObs = e.startObs[:0]
	e.relObs = e.relObs[:0]
	for _, obs := range cfg.Observers {
		if so, ok := obs.(StartObserver); ok {
			e.startObs = append(e.startObs, so)
		}
		if ro, ok := obs.(ReleaseObserver); ok {
			e.relObs = append(e.relObs, ro)
		}
	}
	// Initial releases consume seq 0..N-1 in task order, exactly like
	// the reference engine's initial event pushes.
	for i := 0; i < e.g.NumTasks(); i++ {
		t := e.g.Task(model.TaskID(i))
		off := t.Offset
		if cfg.Offsets != nil {
			off = cfg.Offsets[i]
		}
		e.releases.push(relEntry{time: off, seq: e.seq, task: t.ID})
		e.seq++
	}
	e.cycleInit()
}

// Run simulates the graph for cfg.Horizon of simulated time and returns
// aggregate statistics — the one-shot convenience form of NewEngine +
// (*Engine).Run.
func Run(g *model.Graph, cfg Config) (*Stats, error) {
	e, err := NewEngine(g)
	if err != nil {
		return nil, err
	}
	return e.Run(cfg)
}

func (e *Engine) pushEvent(ev event) {
	ev.seq = e.seq
	e.seq++
	e.events.push(ev)
}

// loop processes events in batches per time instant: all finishes first
// (outputs become visible and ECUs turn idle), then LET publishes, then
// all releases (jobs enqueue, stimuli publish), then one dispatch pass
// per ECU. This makes priority — not event insertion order — decide
// among jobs released at the same instant, and lets a job starting at t
// read every token written at or before t. Zero execution times can
// produce new finish events at the same instant; the inner loop
// re-batches until the instant drains.
//
// The batch order equals the reference engine's single-heap pop order:
// event kinds sort finish < publish < release, and handling an event at
// time t never creates another event at t (periods and LET intervals
// are positive) — only dispatch can, and both engines dispatch after
// draining the instant.
func (e *Engine) loop() {
	for {
		var now timeu.Time
		switch {
		case e.events.len() > 0 && e.releases.len() > 0:
			now = timeu.Min(e.events.top().time, e.releases.top().time)
		case e.events.len() > 0:
			now = e.events.top().time
		case e.releases.len() > 0:
			now = e.releases.top().time
		default:
			return
		}
		if now > e.cfg.Horizon {
			return
		}
		if e.cyc.active && now >= e.cyc.next {
			// Crossing a hyperperiod boundary: fingerprint the state
			// before processing this instant. A jump shifts every
			// pending time, so the instant must be recomputed.
			if e.cycleAdvance(now) {
				continue
			}
		}
		e.stats.End = now
		for {
			for e.events.len() > 0 && e.events.top().time == now {
				ev := e.events.pop()
				if ev.kind == evFinish {
					e.finish(ev.ecu, now)
				} else {
					e.letPublish(ev.task, now)
				}
			}
			for e.releases.len() > 0 && e.releases.top().time == now {
				e.release(now)
			}
			for i := range e.ecus {
				e.dispatch(model.ECUID(i), now)
			}
			if e.events.len() == 0 || e.events.top().time != now {
				break
			}
		}
	}
}

// release fires the calendar's top entry: the due task's next release.
func (e *Engine) release(now timeu.Time) {
	task := e.releases.top().task
	t := &e.info[task]
	k := e.nextK[task]
	e.nextK[task]++
	next := t.period
	if t.sporadicSpan > 0 {
		// Bounded sporadic arrivals: the next release falls uniformly in
		// [Period, MaxPeriod].
		next += timeu.Time(e.rng.Int63n(t.sporadicSpan))
	}
	// Re-key this task's calendar entry to its next release; consumes a
	// seq at the same point the reference engine's next-release push
	// does, keeping event order and rng draws aligned.
	e.releases.advanceTop(now+next, e.seq)
	e.seq++

	for _, ro := range e.relObs {
		ro.JobReleased(task, k, now)
	}

	if t.stimulus {
		// External stimulus: produces its token instantly at release.
		j := e.jobs.get()
		j.Task, j.K, j.Release, j.Start, j.Finish = task, k, now, now, now
		tok := e.toks.get()
		tok.Stamps = append(tok.Stamps, Stamp{Task: task, Min: now, Max: now})
		j.Out = tok
		e.publish(j)
		e.toks.release(tok)
		e.jobs.put(j)
		return
	}

	if e.pendingCount[task] > 0 {
		e.stats.Overruns++
	}
	e.pendingCount[task]++
	j := e.jobs.get()
	j.Task, j.K, j.Release = task, k, now
	if t.let {
		// LET: inputs are read at release and the output is published at
		// the deadline, regardless of when the job executes.
		j.let = true
		tok := e.assembleToken(j)
		e.pubQueue[task].slots = append(e.pubQueue[task].slots, pendingPublish{job: Job{
			Task: task, K: k, Release: now, Start: now, Finish: now + t.period, Out: tok,
			EmptyInputs: j.EmptyInputs,
		}})
		e.pushEvent(event{time: now + t.period, kind: evPublish, task: task})
	}
	e.ecus[t.ecu].ready.push(readyJob{job: j, prio: t.prio})
}

// letPublish fires a LET task's deadline: the token assembled at release
// becomes visible and observers see the completed logical job.
func (e *Engine) letPublish(task model.TaskID, now timeu.Time) {
	q := &e.pubQueue[task]
	if q.head >= len(q.slots) {
		panic("sim: publish event without pending token")
	}
	j := &q.slots[q.head].job
	q.head++
	if j.Finish != now {
		panic("sim: publish event out of order")
	}
	e.publish(j)
	e.toks.release(j.Out)
	j.Out = nil
	if q.head == len(q.slots) {
		q.slots = q.slots[:0]
		q.head = 0
	}
}

// assembleToken reads the job's input channels (implicit: at start; LET:
// at release) and builds the output token. Instead of the reference
// engine's sorted k-way merge, stamps accumulate in flat origin-indexed
// min/max arrays — O(inputs · stamps + origins) with no sorting and no
// intermediate slices — and the output lists origins in ascending task
// order, matching mergeStamps exactly.
func (e *Engine) assembleToken(j *Job) *Token {
	if e.info[j.Task].isSource {
		// A source stamps its output with its release time (t(J) = r(J)).
		tok := e.toks.get()
		tok.Stamps = append(tok.Stamps, Stamp{Task: j.Task, Min: j.Release, Max: j.Release})
		return tok
	}
	switch ins := e.ins[j.Task]; len(ins) {
	case 1:
		// Single input: the read token is already merged and sorted, and
		// tokens are immutable once published — share it outright instead
		// of copying its stamps. The retain makes the job a co-owner; the
		// token returns to the pool only after every channel slot and the
		// job itself release it. (The reference engine shares the stamps
		// slice in this case for the same reason.)
		tk := ins[0].read()
		if tk == nil {
			j.EmptyInputs++
			return e.toks.get()
		}
		e.toks.retain(tk)
		return tk
	case 2:
		tok := e.toks.get()
		// Two inputs: a direct two-pointer merge beats scattering into
		// the origin arrays and rescanning them.
		a, b := ins[0].read(), ins[1].read()
		if a == nil || b == nil {
			if a == nil {
				j.EmptyInputs++
				a = b
			} else {
				j.EmptyInputs++ // b was the empty one
			}
			if a == nil {
				j.EmptyInputs++ // both empty
				return tok
			}
			tok.Stamps = append(tok.Stamps, a.Stamps...)
			return tok
		}
		sa, sb := a.Stamps, b.Stamps
		ia, ib := 0, 0
		for ia < len(sa) && ib < len(sb) {
			switch {
			case sa[ia].Task < sb[ib].Task:
				tok.Stamps = append(tok.Stamps, sa[ia])
				ia++
			case sa[ia].Task > sb[ib].Task:
				tok.Stamps = append(tok.Stamps, sb[ib])
				ib++
			default:
				tok.Stamps = append(tok.Stamps, Stamp{
					Task: sa[ia].Task,
					Min:  timeu.Min(sa[ia].Min, sb[ib].Min),
					Max:  timeu.Max(sa[ia].Max, sb[ib].Max),
				})
				ia++
				ib++
			}
		}
		tok.Stamps = append(tok.Stamps, sa[ia:]...)
		tok.Stamps = append(tok.Stamps, sb[ib:]...)
		return tok
	}
	tok := e.toks.get()
	e.curEpoch++
	ep := e.curEpoch
	for _, ch := range e.ins[j.Task] {
		tk := ch.read()
		if tk == nil {
			j.EmptyInputs++
			continue
		}
		for _, s := range tk.Stamps {
			oi := e.originIdx[s.Task] // panics if a non-origin task leaks into a stamp
			if e.epoch[oi] != ep {
				e.epoch[oi] = ep
				e.minT[oi] = s.Min
				e.maxT[oi] = s.Max
				continue
			}
			if s.Min < e.minT[oi] {
				e.minT[oi] = s.Min
			}
			if s.Max > e.maxT[oi] {
				e.maxT[oi] = s.Max
			}
		}
	}
	for oi, id := range e.origins {
		if e.epoch[oi] == ep {
			tok.Stamps = append(tok.Stamps, Stamp{Task: id, Min: e.minT[oi], Max: e.maxT[oi]})
		}
	}
	return tok
}

// dispatch starts the highest-priority ready job if the ECU is idle.
func (e *Engine) dispatch(ecu model.ECUID, now timeu.Time) {
	es := &e.ecus[ecu]
	if es.running != nil || es.ready.len() == 0 {
		return
	}
	j := es.ready.pop().job
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
	e.pushEvent(event{time: j.Finish, kind: evFinish, ecu: ecu})
}

func (e *Engine) finish(ecu model.ECUID, now timeu.Time) {
	es := &e.ecus[ecu]
	j := es.running
	es.running = nil
	e.pendingCount[j.Task]--
	if j.let {
		// The logical job completes at its publish instant, not here; the
		// ECU half carries no token.
		e.jobs.put(j)
		return
	}
	e.publish(j)
	e.toks.release(j.Out)
	e.jobs.put(j)
}

// publish writes the job's token to all output channels and notifies
// observers. The caller still owns its token reference afterwards.
func (e *Engine) publish(j *Job) {
	for _, ch := range e.outs[j.Task] {
		ch.write(j.Out)
	}
	e.stats.Jobs++
	if e.cfg.Trace != nil {
		if e.chunkLeft--; e.chunkLeft <= 0 {
			e.chunkSpan.End(span.Int("jobs", traceChunk))
			e.chunkSpan = e.cfg.Trace.Start("sim.chunk")
			e.chunkLeft = traceChunk
		}
	}
	for _, obs := range e.cfg.Observers {
		obs.JobFinished(j)
	}
}
