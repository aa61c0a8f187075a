// Package par runs a fixed number of independent jobs on a bounded
// worker pool, with context cancellation, first-error abort, and
// deterministic error aggregation.
//
// It replaces the ad-hoc WaitGroup-plus-semaphore loops of the
// experiment harness, which silently discarded every per-job failure:
// here the first failing job cancels the context so in-flight workers
// can stop early, jobs not yet started are skipped, and every error
// that did occur is reported, joined in job order.
package par

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// Runner executes jobs with at most Workers running concurrently.
// Each worker claims the next job index from a shared atomic counter,
// so handing out a job costs one atomic add, and jobs of a few
// microseconds still keep the workers busy.
type Runner struct {
	// Workers bounds concurrency; ≤ 0 selects GOMAXPROCS.
	Workers int
	// OnProgress, when non-nil, is called after every finished or
	// skipped job with the number of settled jobs and the total. Calls
	// are serialized; done increases by one per call up to total.
	OnProgress func(done, total int)
}

// RunIndexed invokes fn(ctx, worker, i) for every i in [0, n), where
// worker ∈ [0, Workers) identifies the pool slot executing the job —
// stable per goroutine, so callers can key per-worker state (trace
// tracks, scratch buffers) without locks. Workers claim job indices in
// ascending order from a shared counter. The first error cancels the
// shared context: running jobs observe ctx.Done(), and jobs claimed
// after it are skipped entirely (settled, never run). RunIndexed waits
// for all started jobs, then returns every job error joined in
// job-index order (nil if none). Cancellation of the parent context
// aborts the same way and is reported as ctx.Err() when no job failed
// first.
func (r Runner) RunIndexed(ctx context.Context, n int, fn func(ctx context.Context, worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	errs := make([]error, n)
	var (
		next       atomic.Int64
		progressMu sync.Mutex
		done       int
	)
	settle := func() {
		if r.OnProgress == nil {
			return
		}
		progressMu.Lock()
		done++
		r.OnProgress(done, n)
		progressMu.Unlock()
	}

	// A non-blocking receive on Done tests cancellation without the
	// mutex ctx.Err takes on every call.
	stop := ctx.Done()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				select {
				case <-stop:
					settle()
					continue
				default:
				}
				if err := fn(ctx, worker, i); err != nil {
					errs[i] = err
					cancel()
				}
				settle()
			}
		}(w)
	}
	wg.Wait()

	if err := errors.Join(errs...); err != nil {
		return err
	}
	// No job failed; surface external cancellation if any.
	return context.Cause(ctx)
}
