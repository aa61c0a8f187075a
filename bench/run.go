package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"
)

// runConfig shapes one benchmark run. The CLI bounds rounds by wall
// time; tests bound them by op count instead.
type runConfig struct {
	seed int64
	// measure is the wall time of the timed rounds, split evenly.
	measure time.Duration
	rounds  int
	// warmup ops run untimed after generation; setups repeats the whole
	// set-up (generation, serialization, warm-up) for a stable setup_s.
	warmup, setups int
	// opsPerRound, when positive, fixes every round's op count and
	// ignores measure (test-only).
	opsPerRound int
	// traceOps caps the traced run's op count.
	traceOps int
}

func defaultConfig(seed int64, seconds int) runConfig {
	return runConfig{
		seed: seed, measure: time.Duration(seconds) * time.Second,
		rounds: 5, warmup: 40, setups: 3, traceOps: 200,
	}
}

// step is one input taken through generation and the op, with the
// reference kernel timed between the two.
type step struct {
	in            *input
	r             *result
	err           error
	gen, ref, dur time.Duration
	alloc         uint64
}

// runStep generates input i, times the reference kernel, collects
// garbage so the op starts from a clean heap, and times the op.
func runStep(w *workload, seed int64, i int) (*step, error) {
	t0 := time.Now()
	in, err := w.gen(seed, i)
	if err != nil {
		return nil, err
	}
	s := &step{in: in, gen: time.Since(t0), ref: reference()}
	runtime.GC()
	a0 := heapAllocs()
	t1 := time.Now()
	s.r, s.err = w.op(in)
	s.dur = time.Since(t1)
	s.alloc = heapAllocs() - a0
	return s, nil
}

// sample is one timed op.
type sample struct {
	dur, ref                    time.Duration
	alloc                       uint64
	verdict, optimize, simulate time.Duration
	jobs                        int64
}

// setupRep is one set-up repetition: per warm-up input, the time spent
// generating and running it, and the reference time next to it.
type setupRep struct {
	work, refs []time.Duration
}

// runStats is everything one untraced run measured.
type runStats struct {
	setups        []setupRep
	rounds        [][]sample
	attempted     int
	failed        int
	checkFailures []string
	// sdiffAbove counts results whose S-diff exceeds their P-diff.
	sdiffAbove int
	// digest is the SHA-256 of the warm-up ops' result lines, identical
	// across set-up repetitions.
	digest string
}

// fail records an op error: it counts toward fail_ratio and the run
// goes on.
func (st *runStats) fail(in *input, err error) {
	st.failed++
	st.checkFailures = append(st.checkFailures, fmt.Sprintf("input %d: %v", in.index, err))
}

// review checks one result outside the timed region.
func (st *runStats) review(w *workload, in *input, r *result) {
	st.checkFailures = append(st.checkFailures, w.check(in, r)...)
	if r.sdiff > r.pdiff {
		st.sdiffAbove++
	}
}

// heapAllocs reads the cumulative bytes allocated on the heap. It uses
// runtime.ReadMemStats rather than runtime/metrics' /gc/heap/allocs:bytes
// because the latter counts a whole span when a cache refills, which
// reads a small call's allocation as 0 or as tens of KB.
func heapAllocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// setUp generates, serializes and runs the warm-up inputs once, checks
// the results when asked and returns the digest of their result lines.
func setUp(w *workload, cfg runConfig, st *runStats, check bool) (string, setupRep, error) {
	h := sha256.New()
	var rep setupRep
	for i := 0; i < cfg.warmup; i++ {
		s, err := runStep(w, cfg.seed, i)
		if err != nil {
			return "", rep, err
		}
		rep.work = append(rep.work, s.gen+s.dur)
		rep.refs = append(rep.refs, s.ref)
		st.attempted++
		if s.err != nil {
			st.fail(s.in, s.err)
			continue
		}
		if check {
			st.review(w, s.in, s.r)
		}
		writeResult(h, s.in, s.r)
	}
	return hex.EncodeToString(h.Sum(nil)), rep, nil
}

// measureWorkload runs the set-up repetitions and the timed rounds of
// one workload. Generation errors abort the run.
func measureWorkload(w *workload, cfg runConfig) (*runStats, error) {
	st := &runStats{}
	for i := 0; i < cfg.setups; i++ {
		d, rep, err := setUp(w, cfg, st, i == 0)
		if err != nil {
			return nil, err
		}
		st.setups = append(st.setups, rep)
		if i == 0 {
			st.digest = d
		} else if d != st.digest {
			st.checkFailures = append(st.checkFailures, fmt.Sprintf("set-up %d digest %s differs from set-up 0's %s", i, d, st.digest))
		}
	}

	next := cfg.warmup
	for round := 0; round < cfg.rounds; round++ {
		deadline := time.Now().Add(cfg.measure / time.Duration(cfg.rounds))
		var ss []sample
		for n := 0; n == 0 || (cfg.opsPerRound > 0 && n < cfg.opsPerRound) ||
			(cfg.opsPerRound <= 0 && time.Now().Before(deadline)); n++ {
			s, err := runStep(w, cfg.seed, next)
			if err != nil {
				return nil, err
			}
			next++
			st.attempted++
			if s.err != nil {
				st.fail(s.in, s.err)
				continue
			}
			r := s.r
			smp := sample{dur: s.dur, ref: s.ref, alloc: s.alloc, verdict: r.verdict, optimize: r.optimize, simulate: r.simulate}
			for k := range r.sims {
				smp.jobs += r.sims[k].jobs
			}
			ss = append(ss, smp)
			st.review(w, s.in, r)
		}
		st.rounds = append(st.rounds, ss)
	}
	return st, nil
}
