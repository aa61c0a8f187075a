package par

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunAllJobs(t *testing.T) {
	var hit [50]atomic.Int64
	err := Runner{Workers: 4}.RunIndexed(context.Background(), len(hit), func(_ context.Context, _, i int) error {
		hit[i].Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range hit {
		if hit[i].Load() != 1 {
			t.Fatalf("job %d ran %d times", i, hit[i].Load())
		}
	}
}

func TestBoundedConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	err := Runner{Workers: workers}.RunIndexed(context.Background(), 40, func(_ context.Context, _, i int) error {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds %d workers", p, workers)
	}
}

// TestFirstErrorCancels drives jobs through a gate so the schedule is
// deterministic: job 3 fails while later jobs are still unstarted; the
// unstarted jobs must be skipped and the error reported.
func TestFirstErrorCancels(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	err := Runner{Workers: 1}.RunIndexed(context.Background(), 10, func(ctx context.Context, _, i int) error {
		ran.Add(1)
		if i == 3 {
			return fmt.Errorf("job %d: %w", i, boom)
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	// Single worker: jobs 0..3 ran, the rest were skipped after cancel.
	if got := ran.Load(); got != 4 {
		t.Errorf("ran %d jobs, want 4 (cancellation should skip the rest)", got)
	}
}

// TestProgressSettlesEveryJobAfterError pins OnProgress's promise on
// the cancellation path: with one worker, job 3's failure skips jobs
// 4..9, and each of them still settles, so the last call reports every
// job of the run.
func TestProgressSettlesEveryJobAfterError(t *testing.T) {
	const n = 10
	var ran atomic.Int64
	var lastDone, lastTotal int
	err := Runner{
		Workers: 1,
		OnProgress: func(done, total int) {
			lastDone, lastTotal = done, total
		},
	}.RunIndexed(context.Background(), n, func(ctx context.Context, _, i int) error {
		ran.Add(1)
		if i == 3 {
			return errors.New("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("want job 3's error")
	}
	if got := ran.Load(); got != 4 {
		t.Errorf("ran %d jobs, want 4", got)
	}
	if lastDone != n || lastTotal != n {
		t.Errorf("last progress call (%d, %d), want (%d, %d)", lastDone, lastTotal, n, n)
	}
}

func TestAllErrorsJoinedInOrder(t *testing.T) {
	// Every job fails; with one worker they run sequentially until the
	// first failure cancels the rest — so force all to run by using a
	// runner-visible error on each started job with workers = n.
	n := 4
	var (
		mu         sync.Mutex
		started    int
		allStarted = make(chan struct{})
	)
	err := Runner{Workers: n}.RunIndexed(context.Background(), n, func(ctx context.Context, _, i int) error {
		// Hold every job until all have started, so cancellation from
		// one failure cannot skip the others.
		mu.Lock()
		started++
		if started == n {
			close(allStarted)
		}
		mu.Unlock()
		<-allStarted
		return fmt.Errorf("job-%d-failed", i)
	})
	if err == nil {
		t.Fatal("want joined errors")
	}
	msg := err.Error()
	var idx []int
	for i := 0; i < n; i++ {
		p := strings.Index(msg, fmt.Sprintf("job-%d-failed", i))
		if p < 0 {
			t.Fatalf("error %d missing from %q", i, msg)
		}
		idx = append(idx, p)
	}
	for i := 1; i < n; i++ {
		if idx[i] < idx[i-1] {
			t.Errorf("errors out of job order in %q", msg)
		}
	}
}

func TestParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	gate := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- Runner{Workers: 2}.RunIndexed(ctx, 100, func(ctx context.Context, _, i int) error {
			ran.Add(1)
			<-gate
			return nil
		})
	}()
	cancel()
	close(gate)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() == 100 {
		t.Error("cancellation did not skip any job")
	}
}

func TestProgressReported(t *testing.T) {
	var mu sync.Mutex
	var seen []int
	err := Runner{
		Workers: 4,
		OnProgress: func(done, total int) {
			mu.Lock()
			seen = append(seen, done)
			mu.Unlock()
			if total != 25 {
				t.Errorf("total = %d, want 25", total)
			}
		},
	}.RunIndexed(context.Background(), 25, func(_ context.Context, _, i int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 25 || seen[len(seen)-1] != 25 {
		t.Errorf("progress calls = %v", seen)
	}
	for i, d := range seen {
		if d != i+1 {
			t.Errorf("progress not monotone at %d: %v", i, seen)
			break
		}
	}
}

func TestZeroJobs(t *testing.T) {
	if err := (Runner{}).RunIndexed(context.Background(), 0, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunIndexedWorkerSlots(t *testing.T) {
	const workers, n = 4, 50
	var mu sync.Mutex
	perWorker := make(map[int]int)
	covered := make([]bool, n)
	err := Runner{Workers: workers}.RunIndexed(context.Background(), n,
		func(_ context.Context, worker, i int) error {
			mu.Lock()
			defer mu.Unlock()
			if worker < 0 || worker >= workers {
				t.Errorf("worker slot %d outside [0,%d)", worker, workers)
			}
			perWorker[worker]++
			covered[i] = true
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range covered {
		if !ok {
			t.Errorf("job %d never ran", i)
		}
	}
	total := 0
	for _, c := range perWorker {
		total += c
	}
	if total != n {
		t.Errorf("jobs executed = %d, want %d", total, n)
	}
}

// BenchmarkRunIndexedTinyJobs times the dispatch of 210 trivial jobs,
// the block count of one S-diff descent on the fusion-dense benchmark
// graph, where handing out a job must cost far less than the job.
func BenchmarkRunIndexedTinyJobs(b *testing.B) {
	const n = 210
	job := func(context.Context, int, int) error { return nil }
	for b.Loop() {
		_ = Runner{}.RunIndexed(context.Background(), n, job)
	}
}
