package sim

import (
	"repro/internal/model"
	"repro/internal/timeu"
)

// AgeObserver measures end-to-end latencies between a source task and a
// tail task during simulation:
//
//   - data age: f(J) − timestamp of the source data J consumed, per
//     finished tail job (footnote 2 of the paper);
//   - reaction time: for each source stimulus, the span until the finish
//     of the first tail job whose output reflects that stimulus or a
//     fresher one.
//
// It implements Observer.
type AgeObserver struct {
	tail   model.TaskID
	source model.TaskID
	warm   timeu.Time

	seenAge          bool
	minAge, maxAge   timeu.Time
	maxReaction      timeu.Time
	pendingStimulus  timeu.Time // oldest unacknowledged stimulus release
	havePending      bool
	reactionMeasured bool
}

// NewAgeObserver watches data-age and reaction-time samples for the
// (source → … → tail) flow, ignoring jobs finishing before warmup.
func NewAgeObserver(tail, source model.TaskID, warmup timeu.Time) *AgeObserver {
	return &AgeObserver{tail: tail, source: source, warm: warmup}
}

// JobReleased implements ReleaseObserver: source releases are stimuli.
func (o *AgeObserver) JobReleased(task model.TaskID, _ int64, release timeu.Time) {
	if task != o.source || release < o.warm {
		return
	}
	if !o.havePending {
		o.pendingStimulus = release
		o.havePending = true
	}
}

// JobFinished implements Observer.
func (o *AgeObserver) JobFinished(j *Job) {
	if j.Task != o.tail || j.Finish < o.warm {
		return
	}
	s, ok := j.Out.Stamp(o.source)
	if !ok {
		return
	}
	age := j.Finish - s.Min
	ageFresh := j.Finish - s.Max
	if !o.seenAge {
		o.minAge, o.maxAge, o.seenAge = ageFresh, age, true
	} else {
		o.minAge = timeu.Min(o.minAge, ageFresh)
		o.maxAge = timeu.Max(o.maxAge, age)
	}
	// Reaction: the oldest pending stimulus is answered once the tail's
	// output reflects data at least as fresh as it.
	if o.havePending && s.Max >= o.pendingStimulus {
		if r := j.Finish - o.pendingStimulus; r > o.maxReaction {
			o.maxReaction = r
		}
		o.reactionMeasured = true
		o.havePending = false
	}
}

// appendCycleState implements cycleObserver: the sample-state is the
// oldest unacknowledged stimulus (rebased); age and reaction extrema
// are shift-invariant accumulators.
func (o *AgeObserver) appendCycleState(enc *cycleEnc, base timeu.Time, _ []int64) {
	enc.boolean(o.havePending)
	if o.havePending {
		enc.time(o.pendingStimulus - base)
	}
}

// jumpAhead implements cycleObserver.
func (o *AgeObserver) jumpAhead(dt timeu.Time, _ []int64) {
	if o.havePending {
		o.pendingStimulus += dt
	}
}

// warmup implements cycleObserver.
func (o *AgeObserver) warmup() timeu.Time { return o.warm }

// AgeRange returns the observed [min, max] data age; ok is false if no
// tail job carried source data after warm-up.
func (o *AgeObserver) AgeRange() (min, max timeu.Time, ok bool) {
	return o.minAge, o.maxAge, o.seenAge
}

// MaxReaction returns the largest observed reaction time; ok is false if
// no stimulus was answered after warm-up.
func (o *AgeObserver) MaxReaction() (timeu.Time, bool) {
	return o.maxReaction, o.reactionMeasured
}
