package pool

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var errBoom = errors.New("boom")

// TestRunEveryIndexOnce: every index runs exactly once, on no more
// goroutines than the worker bound or n allow.
func TestRunEveryIndexOnce(t *testing.T) {
	for workers := -1; workers <= 8; workers++ {
		for _, n := range []int{0, 1, 7, 100} {
			runs := make([]atomic.Int32, n)
			var live, peak atomic.Int32
			err := Run(context.Background(), workers, n, func(_ context.Context, i int) error {
				l := live.Add(1)
				for {
					p := peak.Load()
					if l <= p || peak.CompareAndSwap(p, l) {
						break
					}
				}
				runs[i].Add(1)
				live.Add(-1)
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			for i := range runs {
				if c := runs[i].Load(); c != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, c)
				}
			}
			if p := int(peak.Load()); p > n || (workers > 0 && p > workers) {
				t.Fatalf("workers=%d n=%d: %d jobs ran at once", workers, n, p)
			}
		}
	}
}

// TestRunOneWorkerInOrder: one worker runs the jobs in index order.
func TestRunOneWorkerInOrder(t *testing.T) {
	var order []int
	if err := Run(context.Background(), 1, 50, func(_ context.Context, i int) error {
		order = append(order, i)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("job %d ran at position %d", got, i)
		}
	}
	if len(order) != 50 {
		t.Fatalf("ran %d jobs, want 50", len(order))
	}
}

// TestRunFirstErrorStopsClaims: the first error is returned, and with one
// worker no job after the failing index starts.
func TestRunFirstErrorStopsClaims(t *testing.T) {
	var started int
	err := Run(context.Background(), 1, 100, func(_ context.Context, i int) error {
		started++
		if i == 3 {
			return errBoom
		}
		return nil
	})
	if err != errBoom {
		t.Fatalf("Run returned %v, want the job's error", err)
	}
	if started != 4 {
		t.Fatalf("started %d jobs, want 4: none after the failure at index 3", started)
	}

	var claimed atomic.Int64
	const n = 10000
	err = Run(context.Background(), 4, n, func(_ context.Context, i int) error {
		claimed.Add(1)
		if i == 5 {
			return errBoom
		}
		return nil
	})
	if err != errBoom {
		t.Fatalf("four workers: Run returned %v, want the job's error", err)
	}
	if c := claimed.Load(); c >= n {
		t.Fatalf("four workers: all %d jobs ran after a failure", c)
	}
}

// TestRunPanicReraised: a job's panic comes back on the caller's goroutine
// with its own value, after the other workers have returned.
func TestRunPanicReraised(t *testing.T) {
	type marker struct{ i int }
	want := &marker{i: 3}
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if got := recover(); got != want {
					t.Fatalf("workers=%d: recovered %v, want the job's own value", workers, got)
				}
			}()
			Run(context.Background(), workers, 100, func(_ context.Context, i int) error {
				if i == 3 {
					panic(want)
				}
				return nil
			})
			t.Fatalf("workers=%d: Run returned after a job panicked", workers)
		}()
	}
}

// TestRunCanceledBeforeCall: an ended context runs no job and returns its
// error.
func TestRunCanceledBeforeCall(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	err := Run(ctx, 4, 10, func(context.Context, int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if r := ran.Load(); r != 0 {
		t.Fatalf("ran %d jobs under a canceled context", r)
	}
}

// TestRunSiblingFailureCancelsJobs: a running job's context is canceled
// once a sibling fails, and Run returns the sibling's error, not the
// context error the canceled job reports.
func TestRunSiblingFailureCancelsJobs(t *testing.T) {
	var wg sync.WaitGroup
	wg.Add(1)
	err := Run(context.Background(), 2, 2, func(ctx context.Context, i int) error {
		if i == 1 {
			wg.Wait() // job 0 holds its context
			return errBoom
		}
		wg.Done()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Second):
			t.Error("job 0's context was not canceled after job 1 failed")
			return nil
		}
	})
	if err != errBoom {
		t.Fatalf("Run returned %v, want the failing sibling's error", err)
	}
}
