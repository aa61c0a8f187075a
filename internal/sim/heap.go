package sim

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/model"
	"repro/internal/timeu"
)

// Value-typed 4-ary heaps and the release calendar for the simulation
// hot path. container/heap costs an interface boxing allocation per
// Push and a dynamic dispatch per comparison; these heaps store elements
// inline with the comparison inlined into the sift loops. The three
// element types get concrete (non-generic) implementations on purpose:
// Go's gcshape stenciling calls a type parameter's methods through a
// dictionary, which keeps tiny comparators like event ordering from
// inlining — measured at ~30% of the event loop on dense workloads. The
// arity of 4 halves the tree depth versus a binary heap, trading a few
// extra sibling comparisons (cheap, cache-local) for fewer levels of
// moves; sifting moves a hole and places the element once instead of
// swapping at every level.
//
// The release calendar (releaseQueue) is not a heap over the tasks: it
// keeps one sorted ring per period class and a 4-ary heap over the ring
// heads, so firing a release rotates one ring and sifts a heap of
// classes (see releaseQueue for why the rings stay sorted).
//
// All three orders — event (time, kind, seq), readyJob (prio, release,
// task, index), relEntry (time, seq) — are total, so pop order is
// independent of the internal tree shape and any correct heap yields
// the same sequence. The differential harness leans on that: the
// reference engine uses container/heap binary heaps, with every release
// in its event heap, and must pop in the same order.

// lessThan orders events by (time, kind, seq) — the same order the
// reference engine's container/heap uses.
func (a event) lessThan(b event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.seq < b.seq
}

// eventHeap4 is the global queue of finish and LET-publish events.
type eventHeap4 struct {
	s []event
}

func (h *eventHeap4) len() int    { return len(h.s) }
func (h *eventHeap4) top() *event { return &h.s[0] }

func (h *eventHeap4) clear() {
	h.s = h.s[:0]
}

func (h *eventHeap4) push(v event) {
	h.s = append(h.s, v)
	s := h.s
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !v.lessThan(s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = v
}

func (h *eventHeap4) pop() event {
	v := h.s[0]
	n := len(h.s) - 1
	h.s[0] = h.s[n]
	h.s = h.s[:n]
	if n > 1 {
		h.siftDown()
	}
	return v
}

func (h *eventHeap4) siftDown() {
	s := h.s
	n := len(s)
	v := s[0]
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if s[j].lessThan(s[best]) {
				best = j
			}
		}
		if !s[best].lessThan(v) {
			break
		}
		s[i] = s[best]
		i = best
	}
	s[i] = v
}

// lessThan orders ready jobs by (priority, release, task, job index).
func (a readyJob) lessThan(b readyJob) bool {
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

// readyHeap4 is one ECU's queue of pending jobs.
type readyHeap4 struct {
	s []readyJob
}

func (h *readyHeap4) len() int { return len(h.s) }

func (h *readyHeap4) clear() {
	for i := range h.s {
		h.s[i] = readyJob{} // drop job pointers so pooled jobs don't leak
	}
	h.s = h.s[:0]
}

func (h *readyHeap4) push(v readyJob) {
	h.s = append(h.s, v)
	s := h.s
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !v.lessThan(s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = v
}

func (h *readyHeap4) pop() readyJob {
	v := h.s[0]
	n := len(h.s) - 1
	h.s[0] = h.s[n]
	h.s[n] = readyJob{}
	h.s = h.s[:n]
	if n > 1 {
		h.siftDown()
	}
	return v
}

func (h *readyHeap4) siftDown() {
	s := h.s
	n := len(s)
	v := s[0]
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if s[j].lessThan(s[best]) {
				best = j
			}
		}
		if !s[best].lessThan(v) {
			break
		}
		s[i] = s[best]
		i = best
	}
	s[i] = v
}

// relEntry is one task's next pending release, keyed like an evRelease
// event: (time, seq). All entries share kind evRelease, so (time, seq)
// alone reproduces the reference engine's event order among releases.
type relEntry struct {
	time timeu.Time
	seq  int64
	task model.TaskID
}

// relHead is a period class's earliest pending release, held inline in
// the calendar's head heap together with its class, so firing a release
// needs no per-task lookup. pos counts ring places from the class's
// head; only appendInOrder's merge moves it off 0.
type relHead struct {
	relEntry
	class int32
	pos   int32
}

// relClass is one period class's ring, ring[lo : lo+n]. Read from
// ring[lo+head] onward, wrapping around, its entries are in (time, seq)
// order.
type relClass struct {
	lo, n, head int
}

// releaseQueue is the calendar for periodic and sporadic releases:
// exactly one entry per task, holding that task's next release. The
// reference engine keeps every future release in the global event heap;
// here the global heap shrinks to running-job finishes (≤ #ECUs) plus
// LET publishes, and releases live in this fixed-size structure.
//
// The entries sit in one sorted ring per period class, and a 4-ary heap
// holds each ring's earliest entry. Firing a release touches one ring
// and sifts a heap over the classes, so its cost follows the number of
// distinct periods (4–5 on the WATERS workloads), not the task count.
//
// Why a ring is exact. Firing a strictly periodic task re-keys its entry
// from (t, s) to (t + P, s′), where s′ is a fresh seq larger than every
// live one. While a class's pending releases lie within one period of
// each other, no other entry of the class is later than t + P, and one
// at t + P has the smaller seq, so the new key is the class's largest:
// the class's order is a fixed cyclic order, and firing its head is a
// rotation — the new key goes into the head's slot and the head advances
// past it. Offsets more than a period apart break that until the
// class's releases have drawn within one period of each other, so
// advanceTop sinks the new key to its place with an insertion step;
// WATERS offsets, drawn in [0, P), never need it. A sporadic task's
// increment is drawn, so each sporadic task is a class of its own, and
// with all periods distinct the calendar is a heap over every task with
// one-entry rings. The head heap's top is the global (time, seq)
// minimum, so pop order, seq consumption and rng draws are the
// reference engine's.
//
// Class membership is fixed per engine, since periods do not change
// between runs; a run only re-keys the entries (start).
type releaseQueue struct {
	ring    []relEntry
	classes []relClass
	heads   []relHead
	merge   []relHead // appendInOrder's scratch heap
}

// init sizes the calendar for the engine's tasks and groups them into
// classes: strictly periodic tasks of equal period share a ring, each
// sporadic task has its own. Until the first start, an entry's key is
// (period, sporadic span), so sorted entries put each period's strictly
// periodic tasks (span 0) in one run; start orders the members.
func (q *releaseQueue) init(info []taskInfo) {
	q.ring = make([]relEntry, len(info))
	for i := range q.ring {
		q.ring[i] = relEntry{time: info[i].period, seq: info[i].sporadicSpan, task: model.TaskID(i)}
	}
	slices.SortFunc(q.ring, cmpRel)
	joins := func(i int) bool {
		a, b := &q.ring[i-1], &q.ring[i]
		return a.time == b.time && a.seq == 0 && b.seq == 0
	}
	k := 0
	for i := range q.ring {
		if i == 0 || !joins(i) {
			k++
		}
	}
	q.classes = make([]relClass, 0, k)
	for i := range q.ring {
		if i > 0 && joins(i) {
			q.classes[len(q.classes)-1].n++
		} else {
			q.classes = append(q.classes, relClass{lo: i, n: 1})
		}
	}
	q.heads = make([]relHead, 0, k)
}

// len is the number of classes with a pending release: zero only for a
// graph without tasks.
func (q *releaseQueue) len() int       { return len(q.heads) }
func (q *releaseQueue) top() *relEntry { return &q.heads[0].relEntry }

// cmpRel orders entries by (time, seq).
func cmpRel(a, b relEntry) int {
	if c := cmp.Compare(a.time, b.time); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// start begins a run once every entry holds its task's first release:
// it sorts each ring and rebuilds the head heap.
func (q *releaseQueue) start() {
	q.heads = q.heads[:0]
	for ci := range q.classes {
		c := &q.classes[ci]
		ring := q.ring[c.lo : c.lo+c.n]
		slices.SortFunc(ring, cmpRel)
		c.head = 0
		q.heads = append(q.heads, relHead{relEntry: ring[0], class: int32(ci)})
	}
	// A sorted array is a heap.
	slices.SortFunc(q.heads, func(a, b relHead) int { return cmpRel(a.relEntry, b.relEntry) })
}

// relLess compares two (time, seq) keys as one 128-bit unsigned number
// via a borrow chain. Both components are non-negative (Run rejects
// negative offsets), so the unsigned comparison matches the
// lexicographic (time, seq) order — but unlike the naive
// `a.time < b.time || (a.time == b.time && a.seq < b.seq)` it compiles
// to straight-line ALU ops with no data-dependent branches. The
// calendar's sifts run once per simulated job release and their
// comparison outcomes are near-random, so the mispredict penalty of the
// branchy form dominated the event loop in profiles.
func relLess(at timeu.Time, as int64, bt timeu.Time, bs int64) bool {
	_, borrow := bits.Sub64(uint64(as), uint64(bs), 0)
	_, borrow = bits.Sub64(uint64(at), uint64(bt), borrow)
	return borrow != 0
}

// advanceTop re-keys the top entry — the release just fired — to its
// task's next release: the new key takes the fired entry's ring slot,
// the ring's head advances past it, and the class's new earliest entry
// sinks through the head heap.
func (q *releaseQueue) advanceTop(time timeu.Time, seq int64) {
	h := &q.heads[0]
	c := &q.classes[h.class]
	ring := q.ring[c.lo : c.lo+c.n]
	v := relEntry{time: time, seq: seq, task: h.task}
	j := c.head
	if c.head++; c.head == len(ring) {
		c.head = 0
	}
	// The fired slot is now the ring's last place. Outside the transient
	// the first comparison stops the insertion step.
	for k := 1; k < len(ring); k++ {
		p := j - 1
		if p < 0 {
			p = len(ring) - 1
		}
		if !relLess(v.time, v.seq, ring[p].time, ring[p].seq) {
			break
		}
		ring[j] = ring[p]
		j = p
	}
	ring[j] = v
	h.relEntry = ring[c.head]
	siftRelHeads(q.heads)
}

// siftRelHeads restores heap order after the key of s[0] grew.
func siftRelHeads(s []relHead) {
	n := len(s)
	v := s[0]
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if relLess(s[j].time, s[j].seq, s[best].time, s[best].seq) {
				best = j
			}
		}
		if !relLess(s[best].time, s[best].seq, v.time, v.seq) {
			break
		}
		s[i] = s[best]
		i = best
	}
	s[i] = v
}

// appendInOrder appends every pending release to dst in firing order,
// (time, seq), by merging the sorted rings through a copy of the head
// heap: O(N log K) for N tasks in K classes.
func (q *releaseQueue) appendInOrder(dst []relEntry) []relEntry {
	dst = slices.Grow(dst, len(q.ring))
	m := append(q.merge[:0], q.heads...)
	for len(m) > 0 {
		h := &m[0]
		dst = append(dst, h.relEntry)
		c := &q.classes[h.class]
		if h.pos++; int(h.pos) < c.n {
			k := c.head + int(h.pos)
			if k >= c.n {
				k -= c.n
			}
			h.relEntry = q.ring[c.lo+k]
		} else {
			last := len(m) - 1
			m[0] = m[last]
			if m = m[:last]; last == 0 {
				break
			}
		}
		siftRelHeads(m)
	}
	q.merge = m
	return dst
}

// shift moves every pending release dt later (jump-ahead).
func (q *releaseQueue) shift(dt timeu.Time) {
	for i := range q.ring {
		q.ring[i].time += dt
	}
	for i := range q.heads {
		q.heads[i].time += dt
	}
}
