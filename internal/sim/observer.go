package sim

import (
	"repro/internal/model"
	"repro/internal/timeu"
)

// DisparityObserver records, per observed task, the maximum time
// disparity (Definition 2) among all finished jobs: the span of the
// output token's source timestamps. It implements Observer.
//
// Task IDs are small dense integers, so the per-task state lives in
// slices grown on demand rather than maps — JobFinished runs once per
// simulated job and map hashing dominated it in profiles.
type DisparityObserver struct {
	watchAll bool
	watch    []bool       // indexed by task; false = ignore
	max      []timeu.Time // indexed by task; zero until observed
	warm     timeu.Time
}

// NewDisparityObserver watches the given tasks (all tasks if none are
// given). Jobs finishing before warmup are ignored, letting buffered
// channels reach their steady state first (Lemma 6 is a long-term
// statement).
func NewDisparityObserver(warmup timeu.Time, tasks ...model.TaskID) *DisparityObserver {
	o := &DisparityObserver{warm: warmup, watchAll: len(tasks) == 0}
	for _, t := range tasks {
		if int(t) >= len(o.watch) {
			o.watch = append(o.watch, make([]bool, int(t)+1-len(o.watch))...)
		}
		o.watch[t] = true
	}
	return o
}

// JobFinished implements Observer.
func (o *DisparityObserver) JobFinished(j *Job) {
	if j.Finish < o.warm {
		return
	}
	ti := int(j.Task)
	if !o.watchAll && (ti >= len(o.watch) || !o.watch[ti]) {
		return
	}
	span := j.Out.Span()
	if ti >= len(o.max) {
		o.max = append(o.max, make([]timeu.Time, ti+1-len(o.max))...)
	}
	if span > o.max[ti] {
		o.max[ti] = span
	}
}

// appendCycleState implements cycleObserver. The observer has no
// sample-state: the max accumulators hold shift-invariant disparity
// spans, and a fingerprint match certifies skipped cycles would only
// re-deliver values already folded into them.
func (o *DisparityObserver) appendCycleState(*cycleEnc, timeu.Time, []int64) {}

// jumpAhead implements cycleObserver; disparity spans are differences
// of co-shifted times, so nothing to rebase.
func (o *DisparityObserver) jumpAhead(timeu.Time, []int64) {}

// warmup implements cycleObserver.
func (o *DisparityObserver) warmup() timeu.Time { return o.warm }

// Max returns the maximum observed disparity of the task (0 if no job of
// the task finished after warm-up).
func (o *DisparityObserver) Max(task model.TaskID) timeu.Time {
	if int(task) >= len(o.max) {
		return 0
	}
	return o.max[task]
}

// BackwardObserver records, per (tail task, source task) pair, the range
// of observed backward times: r(job) − timestamp of the source data the
// job consumed. For a chain-shaped graph this is exactly len(⃖π) of the
// immediate backward job chain; on DAGs the min/max aggregate over all
// paths from the source.
type BackwardObserver struct {
	tail   model.TaskID
	source model.TaskID
	warm   timeu.Time

	seen     bool
	min, max timeu.Time
}

// NewBackwardObserver watches jobs of tail consuming data originating at
// source, ignoring jobs finishing before warmup.
func NewBackwardObserver(tail, source model.TaskID, warmup timeu.Time) *BackwardObserver {
	return &BackwardObserver{tail: tail, source: source, warm: warmup}
}

// JobFinished implements Observer.
func (o *BackwardObserver) JobFinished(j *Job) {
	if j.Task != o.tail || j.Finish < o.warm {
		return
	}
	s, ok := j.Out.Stamp(o.source)
	if !ok {
		return
	}
	lo, hi := j.Release-s.Max, j.Release-s.Min
	if !o.seen {
		o.min, o.max, o.seen = lo, hi, true
		return
	}
	o.min = timeu.Min(o.min, lo)
	o.max = timeu.Max(o.max, hi)
}

// appendCycleState implements cycleObserver. Backward times are
// release−stamp differences (shift-invariant), so there is no
// sample-state.
func (o *BackwardObserver) appendCycleState(*cycleEnc, timeu.Time, []int64) {}

// jumpAhead implements cycleObserver.
func (o *BackwardObserver) jumpAhead(timeu.Time, []int64) {}

// warmup implements cycleObserver.
func (o *BackwardObserver) warmup() timeu.Time { return o.warm }

// Range returns the observed [min, max] backward time; ok is false if no
// job carried data from the source.
func (o *BackwardObserver) Range() (min, max timeu.Time, ok bool) {
	return o.min, o.max, o.seen
}

// FuncObserver adapts a function to the Observer interface.
type FuncObserver func(j *Job)

// JobFinished implements Observer.
func (f FuncObserver) JobFinished(j *Job) { f(j) }
