package sim

import (
	"math/bits"

	"repro/internal/timeu"
)

// Steady-state cycle detection and jump-ahead.
//
// A synchronous periodic system revisits the same engine state (up to a
// uniform time shift) at hyperperiod boundaries once the transient has
// drained: releases repeat with period L, and with deterministic
// execution times the schedule, channel contents, and token stamps
// repeat too. The engine exploits this by fingerprinting its complete
// dynamic state at each boundary t = L, 2L, … and, on the first
// fingerprint match, fast-forwarding by an integral number of cycles:
// every live time is shifted by Δ = m·C, job indices by the per-cycle
// index delta, counters by m times the per-cycle counter delta, and
// observers are told to rebase their sample-state. The skipped cycles'
// observer samples are exact time-shifted copies of samples of the
// matched cycle (ages, spans, reactions, and gaps are all differences
// of times that shift together), recorded there or, when a warm-up
// filtered them out, in a trailing cycle the jump leaves before the
// horizon (see cycleBoundary), so the max/min accumulators need no
// replay — see DESIGN.md "Steady-state jump-ahead" for the soundness
// argument. A run jumps at most once.
//
// Jump-ahead arms only when it is provably sound:
//
//   - no sporadic tasks (their inter-arrival draws consume the rng),
//   - the exec model implements DeterministicExec (never draws),
//   - every observer implements cycleObserver (its sample-state can be
//     fingerprinted and rebased; per-job callbacks with external state,
//     e.g. trace recorders or FuncObserver closures, cannot),
//   - tracing is off (chunk spans would misreport skipped work),
//   - the hyperperiod exists, fits in int64 nanoseconds, and is no
//     larger than the horizon.
//
// Anything else falls back to full execution at the cost of one bool
// check per event batch. The differential harness holds jumped runs
// bit-identical to full runs on every public result.

// DeterministicExec marks ExecModel implementations whose Sample never
// reads the rng, a precondition for steady-state jump-ahead: skipping
// cycles must not change the random stream seen by later draws, which
// is only trivially true when there are no draws at all. WCETExec and
// BCETExec implement it; randomized models must not.
type DeterministicExec interface {
	DeterministicExec()
}

// DeterministicExec marks WCETExec as rng-free.
func (WCETExec) DeterministicExec() {}

// DeterministicExec marks BCETExec as rng-free.
func (BCETExec) DeterministicExec() {}

// cycleObserver is the observer extension required for jump-ahead. It
// is deliberately unexported: an observer outside this package cannot
// promise that its accumulated results are shift-invariant, so its
// presence simply disables jump-ahead.
//
// appendCycleState encodes the observer's *sample-state* — everything
// that influences which future samples it takes: pending stimuli and
// the previous-output pairing — with times rebased to the boundary
// (t − base) and job indices rebased to the engine's next-index
// counters (k − nextK[task]). Accumulated extrema and counters are
// excluded on purpose: a fingerprint match certifies that the skipped
// cycles would only re-deliver samples already folded into them, or
// folded in again by the trailing cycle (see cycleBoundary).
//
// jumpAhead rebases the same sample-state forward after a jump: times
// shift by dt, job indices of task t by dk[t].
//
// warmup is the instant before which the observer records no sample;
// the engine only takes the largest over all observers. The match rule
// is exact for an observer that keeps this contract:
//
//   - every sample value is a difference of co-shifted times;
//   - results are max/min accumulators (plus seen flags), so a sample
//     recorded twice or once counts the same;
//   - the sample-state evolves the same before and after the warm-up,
//     which only decides whether a sample is recorded;
//   - a filter that compares pending state against an absolute time
//     (LatencyObserver drops reactions to stimuli released before its
//     warm-up) is encoded as one bit per pending item.
type cycleObserver interface {
	appendCycleState(enc *cycleEnc, base timeu.Time, nextK []int64)
	jumpAhead(dt timeu.Time, dk []int64)
	warmup() timeu.Time
}

// JumpStats reports whether and how steady-state jump-ahead ran. The
// zero value means the feature never armed (see Reason).
type JumpStats struct {
	// Eligible reports that the run satisfied every soundness
	// precondition and boundary fingerprinting was active; Reason names
	// the first failed precondition otherwise.
	Eligible bool
	Reason   string `json:",omitempty"`
	// ReasonCode is the stable machine-readable identifier behind
	// Reason (see Code for the full taxonomy): ineligibility codes set
	// where arming fails, plus the two in-flight deactivations
	// ("snapshot-cap", "cycle-exceeds-horizon") that previously left no
	// trace. Like Reason it never differs between identical runs.
	ReasonCode string `json:",omitempty"`
	// Hyperperiod is the boundary spacing L (0 when not eligible).
	Hyperperiod timeu.Time
	// Engaged reports that a fingerprint match occurred and cycles were
	// skipped. A run jumps at most once: Transient is the boundary at
	// which the cycle closed, Cycle its length, and Skipped and
	// SkippedTime the whole cycles fast-forwarded and their span.
	Engaged     bool
	Transient   timeu.Time
	Cycle       timeu.Time
	Skipped     int64
	SkippedTime timeu.Time
}

// Code collapses the outcome into one stable reason-code string, the
// identifier used by decision records (internal/explain) and the
// exp.sim.jump.* counters:
//
//	"engaged"               cycles were skipped
//	"armed-no-repeat"       armed, but no boundary repeated in time
//	"disabled-by-config"    Config.DisableJumpAhead
//	"tracing-enabled"       Config.Trace != nil
//	"random-exec"           exec model draws random execution times
//	"sporadic-tasks"        graph has sporadic tasks
//	"foreign-observer"      an observer needs per-job callbacks
//	"no-finite-hyperperiod" hyperperiod missing, overflowing, or > horizon
//	"snapshot-cap"          still transient after maxCycleSnaps boundaries
//	"cycle-exceeds-horizon" cycle found, but no whole cycle could be
//	                        skipped before the horizon
func (j JumpStats) Code() string {
	switch {
	case j.Engaged:
		return "engaged"
	case j.ReasonCode != "":
		return j.ReasonCode
	case j.Eligible:
		return "armed-no-repeat"
	default:
		return "unknown"
	}
}

// maxCycleSnaps bounds the boundary fingerprints kept per run. A
// periodic system's transient is ordinarily a handful of hyperperiods;
// a system still aperiodic after this many boundaries (e.g. offsets
// far beyond the horizon's reach) is not worth the memory, so
// detection deactivates.
const maxCycleSnaps = 256

// cycleEnc builds a fingerprint as a flat []uint64. All encoders fold
// into word appends so hashing and comparison are cheap.
type cycleEnc struct {
	buf []uint64
}

func (c *cycleEnc) u64(v uint64)      { c.buf = append(c.buf, v) }
func (c *cycleEnc) i64(v int64)       { c.buf = append(c.buf, uint64(v)) }
func (c *cycleEnc) time(t timeu.Time) { c.buf = append(c.buf, uint64(t)) }
func (c *cycleEnc) boolean(b bool) {
	if b {
		c.buf = append(c.buf, 1)
	} else {
		c.buf = append(c.buf, 0)
	}
}

// hashWords mixes one fingerprint word per step: xor, multiply by an
// odd constant, rotate. Each step is a bijection of the running hash
// for a fixed word and of the word for a fixed hash, so fingerprints
// of equal length that differ in one word never collide. Any other
// collision can only cost a missed jump: wordsEqual confirms every
// match.
func hashWords(ws []uint64) uint64 {
	h := uint64(len(ws))
	for _, w := range ws {
		h = bits.RotateLeft64((h^w)*0x9e3779b97f4a7c15, 31)
	}
	return h
}

func wordsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// chanCounters is the per-channel counter snapshot used to scale
// channel statistics by the number of skipped cycles.
type chanCounters struct {
	writes, reads, lost int64
}

// cycleSnap is one boundary fingerprint plus the counter values needed
// to compute per-cycle deltas when a later boundary matches it. Slots
// keep their arrays from run to run, so a reused engine stores
// boundaries without allocating.
type cycleSnap struct {
	boundary timeu.Time
	state    []uint64
	jobs     int64
	overruns int64
	nextK    []int64
	chans    []chanCounters
}

// cycleState is the engine's jump-ahead detector.
type cycleState struct {
	active bool
	period timeu.Time // hyperperiod L
	next   timeu.Time // next boundary to fingerprint
	wmax   timeu.Time // largest observer warm-up (see cycleBoundary)

	// periods lists every task's period, built once per engine.
	periods []timeu.Time

	snaps []cycleSnap
	index map[uint64]int32 // fingerprint hash → first snaps index

	// Scratch buffers, reused across boundaries and runs.
	enc     cycleEnc
	events  []event
	rels    []relEntry
	readies []readyJob
	dk      []int64
	visited map[*Token]struct{}

	jump JumpStats
}

// cycleInit arms or disarms jump-ahead for the run configured in
// e.cfg. Called from reset.
func (e *Engine) cycleInit() {
	c := &e.cyc
	c.active = false
	c.snaps = c.snaps[:0]
	c.jump = JumpStats{}
	reason := func(code, r string) { c.jump.ReasonCode, c.jump.Reason = code, r }
	if e.cfg.DisableJumpAhead {
		reason("disabled-by-config", "disabled by config")
		return
	}
	if e.cfg.Trace != nil {
		reason("tracing-enabled", "tracing enabled")
		return
	}
	if _, ok := e.cfg.Exec.(DeterministicExec); !ok {
		reason("random-exec", "exec model "+e.cfg.Exec.Name()+" draws random execution times")
		return
	}
	if e.sporadic {
		reason("sporadic-tasks", "graph has sporadic tasks")
		return
	}
	c.wmax = 0
	for _, obs := range e.cfg.Observers {
		co, ok := obs.(cycleObserver)
		if !ok {
			reason("foreign-observer", "observer requires per-job callbacks")
			return
		}
		c.wmax = timeu.Max(c.wmax, co.warmup())
	}
	l, err := timeu.HyperperiodChecked(c.periods, e.cfg.Horizon)
	if err != nil {
		reason("no-finite-hyperperiod", err.Error())
		return
	}
	c.period = l
	c.next = l
	c.active = true
	c.jump.Eligible = true
	c.jump.Hyperperiod = l
	if c.index == nil {
		c.index = make(map[uint64]int32)
	} else {
		clear(c.index)
	}
}

// LastJump reports how steady-state jump-ahead behaved during the most
// recent Run. It is diagnostic only — it never differs between two
// runs with identical configurations, so results embedding it remain
// deterministic.
func (e *Engine) LastJump() JumpStats { return e.cyc.jump }

// cycleAdvance fingerprints every boundary at or before now. It
// returns true when a jump was applied, in which case the event loop
// must recompute its current instant (all pending times moved).
func (e *Engine) cycleAdvance(now timeu.Time) bool {
	c := &e.cyc
	for c.active && now >= c.next {
		b := c.next
		c.next += c.period
		if e.cycleBoundary(b) {
			return true
		}
	}
	return false
}

// cycleBoundary fingerprints the state at boundary b, matching it
// against earlier boundaries. The first match, against b0 = b − C,
// jumps m = ⌊(horizon − b)/C⌋ whole cycles, one fewer when b0 precedes
// the largest warm-up wmax, and ends detection:
//
//   - b0 ≥ wmax: every observer records every sample from b0 on, so the
//     skipped cycles re-deliver samples already recorded in [b0, b).
//   - b0 < wmax: a sample in [b0, b) may have been filtered out by a
//     warm-up while its skipped copies would be recorded. The cycle
//     left before the horizon replays every skipped sample, later and
//     so past the same warm-ups, and records it.
//
// It returns true when a jump was applied.
func (e *Engine) cycleBoundary(b timeu.Time) bool {
	c := &e.cyc
	c.enc.buf = c.enc.buf[:0]
	e.encodeCycleState(&c.enc, b)
	h := hashWords(c.enc.buf)
	if i, ok := c.index[h]; ok && wordsEqual(c.snaps[i].state, c.enc.buf) {
		c.active = false
		snap := &c.snaps[i]
		cycle := b - snap.boundary
		m := int64((e.cfg.Horizon - b) / cycle)
		if snap.boundary < c.wmax {
			m-- // keep the trailing cycle
		}
		if m < 1 {
			// Nothing to skip, and every later boundary would re-match.
			c.jump.ReasonCode = "cycle-exceeds-horizon"
			c.jump.Reason = "cycle detected but no whole cycle can be skipped before the horizon"
			return false
		}
		e.applyJump(b, snap, cycle, m)
		return true
	}
	if len(c.snaps) >= maxCycleSnaps {
		// Still transient after many hyperperiods — stop paying for
		// snapshots.
		c.jump.ReasonCode = "snapshot-cap"
		c.jump.Reason = "still transient after the boundary-snapshot cap"
		c.active = false
		return false
	}
	if _, dup := c.index[h]; !dup {
		c.index[h] = int32(len(c.snaps))
	}
	n := len(c.snaps)
	if n < cap(c.snaps) {
		c.snaps = c.snaps[:n+1]
	} else {
		c.snaps = append(c.snaps, cycleSnap{})
	}
	snap := &c.snaps[n]
	snap.boundary = b
	snap.state = append(snap.state[:0], c.enc.buf...)
	snap.jobs = e.stats.Jobs
	snap.overruns = e.stats.Overruns
	snap.nextK = append(snap.nextK[:0], e.nextK...)
	if snap.chans == nil {
		snap.chans = make([]chanCounters, len(e.chans))
	}
	for i, ch := range e.chans {
		snap.chans[i] = chanCounters{writes: ch.writes, reads: ch.reads, lost: ch.lost}
	}
	return false
}

// encodeCycleState appends the complete dynamic engine state, rebased
// to boundary b, to enc. Two boundaries with equal encodings continue
// identically (up to the uniform shift): heap pop orders are total
// orders over the encoded keys, so sorted content — including the
// relative seq order captured by the sort — determines all future
// behavior.
func (e *Engine) encodeCycleState(enc *cycleEnc, b timeu.Time) {
	c := &e.cyc

	for _, pc := range e.pendingCount {
		enc.i64(int64(pc))
	}

	// Release calendar, in pop order (time, seq). The payload omits the
	// absolute seq: only the relative order matters for tie-breaking,
	// and the merge of the sorted rings bakes it into the encoding order.
	c.rels = e.releases.appendInOrder(c.rels[:0])
	for _, r := range c.rels {
		enc.i64(int64(r.task))
		enc.time(r.time - b)
	}

	// Finish/publish events, in pop order (time, kind, seq).
	c.events = append(c.events[:0], e.events.s...)
	sortEvents(c.events)
	for _, ev := range c.events {
		enc.i64(int64(ev.kind))
		enc.i64(int64(ev.task))
		enc.i64(int64(ev.ecu))
		enc.time(ev.time - b)
	}

	// Per-ECU running job and ready queue (in pop order).
	for i := range e.ecus {
		es := &e.ecus[i]
		if es.running == nil {
			enc.u64(0)
		} else {
			enc.u64(1)
			e.encodeJob(enc, es.running, b, true)
		}
		c.readies = append(c.readies[:0], es.ready.s...)
		sortReadies(c.readies)
		enc.u64(uint64(len(c.readies)))
		for _, rj := range c.readies {
			e.encodeJob(enc, rj.job, b, false)
		}
	}

	// Channel contents, oldest to newest.
	for _, ch := range e.chans {
		enc.u64(uint64(ch.count))
		for s := 0; s < ch.count; s++ {
			slot := ch.head + s
			if slot >= len(ch.buf) {
				slot -= len(ch.buf)
			}
			enc.boolean(ch.wasRead[slot])
			encodeStamps(enc, ch.buf[slot].Stamps, b)
		}
	}

	// Pending LET publishes, per task in FIFO order.
	for i := range e.pubQueue {
		q := &e.pubQueue[i]
		enc.u64(uint64(len(q.slots) - q.head))
		for k := q.head; k < len(q.slots); k++ {
			e.encodeJob(enc, &q.slots[k].job, b, true)
		}
	}

	// Observer sample-state. cycleInit verified every observer
	// implements cycleObserver.
	for _, obs := range e.cfg.Observers {
		obs.(cycleObserver).appendCycleState(enc, b, e.nextK)
	}
}

// encodeJob appends one live job, rebased to b. full selects jobs with
// assigned Start/Finish (running, pending publish); ready jobs carry
// only their release.
func (e *Engine) encodeJob(enc *cycleEnc, j *Job, b timeu.Time, full bool) {
	enc.i64(int64(j.Task))
	enc.i64(j.K - e.nextK[j.Task])
	enc.time(j.Release - b)
	enc.i64(int64(j.EmptyInputs))
	enc.boolean(j.let)
	if full {
		enc.time(j.Start - b)
		enc.time(j.Finish - b)
	}
	if j.Out == nil {
		enc.u64(0)
	} else {
		enc.u64(1)
		encodeStamps(enc, j.Out.Stamps, b)
	}
}

func encodeStamps(enc *cycleEnc, stamps []Stamp, b timeu.Time) {
	enc.u64(uint64(len(stamps)))
	for _, s := range stamps {
		enc.i64(int64(s.Task))
		enc.time(s.Min - b)
		enc.time(s.Max - b)
	}
}

// applyJump fast-forwards the run by m whole cycles of length `cycle`:
// the state at boundary b is, rebased, identical to the state at
// b + m·cycle, so shifting every live time by Δ = m·cycle, every live
// job index of task t by m·(nextK(b)−nextK(b−cycle))(t), and every
// counter by m times its per-cycle delta puts the engine exactly where
// full execution would have.
func (e *Engine) applyJump(b timeu.Time, snap *cycleSnap, cycle timeu.Time, m int64) {
	c := &e.cyc
	dt := timeu.Time(m) * cycle
	if cap(c.dk) < len(e.nextK) {
		c.dk = make([]int64, len(e.nextK))
	}
	dk := c.dk[:len(e.nextK)]
	for i := range dk {
		dk[i] = m * (e.nextK[i] - snap.nextK[i])
	}

	e.releases.shift(dt)
	for i := range e.events.s {
		e.events.s[i].time += dt
	}

	// Tokens are shared (channel slots, a running job's Out); shift
	// each at most once. The set lives as long as the engine; its first
	// size is one token per channel and per running job.
	if c.visited == nil {
		c.visited = make(map[*Token]struct{}, len(e.chans)+len(e.ecus))
	}
	visited := c.visited
	clear(visited)
	shiftToken := func(t *Token) {
		if t == nil {
			return
		}
		if _, ok := visited[t]; ok {
			return
		}
		visited[t] = struct{}{}
		for i := range t.Stamps {
			t.Stamps[i].Min += dt
			t.Stamps[i].Max += dt
		}
	}
	for i := range e.ecus {
		es := &e.ecus[i]
		if j := es.running; j != nil {
			j.Release += dt
			j.Start += dt
			j.Finish += dt
			j.K += dk[j.Task]
			shiftToken(j.Out)
		}
		for k := range es.ready.s {
			j := es.ready.s[k].job
			j.Release += dt
			j.K += dk[j.Task]
		}
	}
	for i := range e.pubQueue {
		q := &e.pubQueue[i]
		for k := q.head; k < len(q.slots); k++ {
			j := &q.slots[k].job
			j.Release += dt
			j.Start += dt
			j.Finish += dt
			j.K += dk[j.Task]
			shiftToken(j.Out)
		}
	}
	for _, ch := range e.chans {
		for s := 0; s < ch.count; s++ {
			slot := ch.head + s
			if slot >= len(ch.buf) {
				slot -= len(ch.buf)
			}
			shiftToken(ch.buf[slot])
		}
	}
	for i := range e.nextK {
		e.nextK[i] += dk[i]
	}

	// Counters scale by the per-cycle delta; the last processed event
	// lies inside the matched cycle, so its final-cycle copy is End+Δ.
	e.stats.Jobs += m * (e.stats.Jobs - snap.jobs)
	e.stats.Overruns += m * (e.stats.Overruns - snap.overruns)
	e.stats.End += dt
	for i, ch := range e.chans {
		ch.writes += m * (ch.writes - snap.chans[i].writes)
		ch.reads += m * (ch.reads - snap.chans[i].reads)
		ch.lost += m * (ch.lost - snap.chans[i].lost)
	}

	for _, obs := range e.cfg.Observers {
		obs.(cycleObserver).jumpAhead(dt, dk)
	}

	c.jump.Engaged = true
	c.jump.Transient = b
	c.jump.Cycle = cycle
	c.jump.Skipped = m
	c.jump.SkippedTime = dt
}

// Insertion sorts for the fingerprint scratch slices. Live populations
// are small (≤ ECUs + LET tasks for events, queue depths for readies),
// so insertion sort beats sort.Slice's interface overhead and allocates
// nothing.

func sortEvents(s []event) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && v.lessThan(s[j]) {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

func sortReadies(s []readyJob) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && v.lessThan(s[j]) {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}
