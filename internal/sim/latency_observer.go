package sim

import (
	"repro/internal/model"
	"repro/internal/timeu"
)

// LatencyObserver measures the end-to-end latency metric family of one
// sink task exactly, per source task, on a concrete schedule:
//
//   - reduced data age (MRDA): at each sink publish f, the age f − Min
//     of the oldest source data behind the output;
//   - data age (MDA): how long a source value stays the freshest data
//     behind the *current* output — the age of the previous output's
//     data at the instant the next output supersedes it (plus every
//     MRDA sample: data is in use at least until its own publish);
//   - reduced reaction time (MRRT): stimulus release to the first sink
//     publish whose data reflects it (Max ≥ release);
//   - reaction time (MRT): as MRRT, but measured from an external event
//     arriving just after the *previous* stimulus release — the
//     inter-release gap plus the reduced reaction.
//
// It also tracks the minimum fresh age f − Max per source, which ties
// the disparity of an output to the spread of its per-source ages. It
// implements Observer and ReleaseObserver, reads only scalars from the
// pooled Job/Token (retaining neither), and is engine-agnostic: the
// pooled engine and RunReference drive it identically.
type LatencyObserver struct {
	sink model.TaskID
	warm timeu.Time
	// src is indexed by source TaskID; nil entries are unwatched.
	src []*latSource
	ids []model.TaskID
}

// latStimulus is one pending stimulus release: its instant and the gap
// to the release before it (0 for the first).
type latStimulus struct {
	rel, gap timeu.Time
}

type latSource struct {
	// Age side. prevMin/prevK hold the previous sink output's oldest
	// stamp for the consecutive-output data-age pair; a sink output
	// missing the source (cold channels) resets the pairing.
	seenAge         bool
	maxMRDA, maxMDA timeu.Time
	minFresh        timeu.Time
	prevMin         timeu.Time
	prevK           int64
	havePrev        bool
	// Reaction side: FIFO of unanswered stimuli.
	lastRel       timeu.Time
	haveRel       bool
	pending       []latStimulus
	phead         int
	seenReact     bool
	maxRRT, maxRT timeu.Time
}

// NewLatencyObserver watches the sink's outputs for data of the given
// source tasks. Samples before warmup are ignored (channels settle
// first), but pre-warmup releases and outputs still advance the
// stimulus queue and the output pairing, so no post-warmup sample spans
// the warmup boundary incorrectly.
func NewLatencyObserver(sink model.TaskID, sources []model.TaskID, warmup timeu.Time) *LatencyObserver {
	o := &LatencyObserver{sink: sink, warm: warmup}
	for _, s := range sources {
		if int(s) >= len(o.src) {
			o.src = append(o.src, make([]*latSource, int(s)+1-len(o.src))...)
		}
		if o.src[s] == nil {
			o.src[s] = &latSource{}
			o.ids = append(o.ids, s)
		}
	}
	return o
}

// JobReleased implements ReleaseObserver: each release of a watched
// source is a stimulus.
func (o *LatencyObserver) JobReleased(task model.TaskID, k int64, now timeu.Time) {
	if int(task) >= len(o.src) || o.src[task] == nil {
		return
	}
	s := o.src[task]
	var gap timeu.Time
	if s.haveRel {
		gap = now - s.lastRel
	}
	s.pending = append(s.pending, latStimulus{rel: now, gap: gap})
	s.lastRel, s.haveRel = now, true
}

// JobFinished implements Observer: every sink publish is sampled
// against every watched source.
func (o *LatencyObserver) JobFinished(j *Job) {
	if j.Task != o.sink {
		return
	}
	f := j.Finish
	warm := f >= o.warm
	for _, id := range o.ids {
		s := o.src[id]
		st, ok := j.Out.Stamp(id)
		if !ok {
			// No data of this source behind the output: the next output
			// does not supersede a value of it either.
			s.havePrev = false
			continue
		}
		if warm {
			age, fresh := f-st.Min, f-st.Max
			if !s.seenAge {
				s.maxMRDA, s.maxMDA, s.minFresh, s.seenAge = age, age, fresh, true
			} else {
				s.maxMRDA = timeu.Max(s.maxMRDA, age)
				s.maxMDA = timeu.Max(s.maxMDA, age)
				s.minFresh = timeu.Min(s.minFresh, fresh)
			}
			// The previous output's data stayed in use until this one.
			if s.havePrev && s.prevK == j.K-1 {
				s.maxMDA = timeu.Max(s.maxMDA, f-s.prevMin)
			}
		}
		s.prevMin, s.prevK, s.havePrev = st.Min, j.K, true

		// Answer every stimulus this output reflects; this is the first
		// reflecting output (publishes are observed in order), so the
		// reaction sample is exact.
		for s.phead < len(s.pending) && s.pending[s.phead].rel <= st.Max {
			e := s.pending[s.phead]
			s.phead++
			if e.rel < o.warm {
				continue
			}
			rrt := f - e.rel
			if !s.seenReact {
				s.maxRRT, s.maxRT, s.seenReact = rrt, e.gap+rrt, true
			} else {
				s.maxRRT = timeu.Max(s.maxRRT, rrt)
				s.maxRT = timeu.Max(s.maxRT, e.gap+rrt)
			}
		}
		switch {
		case s.phead == len(s.pending):
			// Every stimulus is answered: reuse the FIFO from its start.
			s.pending = s.pending[:0]
			s.phead = 0
		case s.phead > 256 && s.phead*2 >= len(s.pending):
			// Compact the answered prefix so long runs stay O(pending).
			n := copy(s.pending, s.pending[s.phead:])
			s.pending = s.pending[:n]
			s.phead = 0
		}
	}
}

// appendCycleState implements cycleObserver: per source, the pairing
// state of the previous sink output (rebased to the boundary and to
// the sink's job-index counter) and the unanswered-stimulus FIFO
// (rebased instants; gaps are durations). The metric accumulators are
// excluded — ages, freshness, reactions, and gaps are all differences
// of co-shifted times, so skipped cycles re-deliver recorded values.
func (o *LatencyObserver) appendCycleState(enc *cycleEnc, base timeu.Time, nextK []int64) {
	for _, id := range o.ids {
		s := o.src[id]
		enc.boolean(s.havePrev)
		if s.havePrev {
			enc.time(s.prevMin - base)
			enc.i64(s.prevK - nextK[o.sink])
		}
		enc.boolean(s.haveRel)
		if s.haveRel {
			enc.time(s.lastRel - base)
		}
		enc.u64(uint64(len(s.pending) - s.phead))
		for i := s.phead; i < len(s.pending); i++ {
			enc.time(s.pending[i].rel - base)
			enc.time(s.pending[i].gap)
			// The answer-time filter compares the *absolute* release
			// against warm-up, so a pre-warm-up pending stimulus must
			// not match a post-warm-up one even when their rebased
			// instants agree: their answers record differently.
			enc.boolean(s.pending[i].rel < o.warm)
		}
	}
}

// jumpAhead implements cycleObserver, shifting the same sample-state
// forward so post-jump callbacks pair and answer exactly as a full run
// would.
func (o *LatencyObserver) jumpAhead(dt timeu.Time, dk []int64) {
	for _, id := range o.ids {
		s := o.src[id]
		if s.havePrev {
			s.prevMin += dt
			s.prevK += dk[o.sink]
		}
		if s.haveRel {
			s.lastRel += dt
		}
		for i := s.phead; i < len(s.pending); i++ {
			s.pending[i].rel += dt
		}
	}
}

// warmup implements cycleObserver.
func (o *LatencyObserver) warmup() timeu.Time { return o.warm }

// Sources returns the watched source IDs in registration order.
func (o *LatencyObserver) Sources() []model.TaskID { return o.ids }

func (o *LatencyObserver) source(src model.TaskID) *latSource {
	if int(src) >= len(o.src) {
		return nil
	}
	return o.src[src]
}

// MaxReducedAge returns the maximum observed reduced data age (MRDA)
// of sink outputs with respect to the source; ok is false if no
// post-warmup output carried the source's data.
func (o *LatencyObserver) MaxReducedAge(src model.TaskID) (timeu.Time, bool) {
	s := o.source(src)
	if s == nil || !s.seenAge {
		return 0, false
	}
	return s.maxMRDA, true
}

// MaxAge returns the maximum observed data age (MDA); ok as in
// MaxReducedAge. MaxAge ≥ MaxReducedAge by construction.
func (o *LatencyObserver) MaxAge(src model.TaskID) (timeu.Time, bool) {
	s := o.source(src)
	if s == nil || !s.seenAge {
		return 0, false
	}
	return s.maxMDA, true
}

// MinFreshAge returns the minimum observed fresh age f − Max; ok as in
// MaxReducedAge.
func (o *LatencyObserver) MinFreshAge(src model.TaskID) (timeu.Time, bool) {
	s := o.source(src)
	if s == nil || !s.seenAge {
		return 0, false
	}
	return s.minFresh, true
}

// MaxReducedReaction returns the maximum observed reduced reaction time
// (MRRT); ok is false if no post-warmup stimulus was answered.
func (o *LatencyObserver) MaxReducedReaction(src model.TaskID) (timeu.Time, bool) {
	s := o.source(src)
	if s == nil || !s.seenReact {
		return 0, false
	}
	return s.maxRRT, true
}

// MaxReaction returns the maximum observed reaction time (MRT): the
// inter-release gap preceding the stimulus plus its reduced reaction.
// MaxReaction ≥ MaxReducedReaction by construction. Ok as in
// MaxReducedReaction.
func (o *LatencyObserver) MaxReaction(src model.TaskID) (timeu.Time, bool) {
	s := o.source(src)
	if s == nil || !s.seenReact {
		return 0, false
	}
	return s.maxRT, true
}
