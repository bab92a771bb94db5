// Package pool runs n indexed jobs on a bounded set of goroutines. It is the
// one fan-out behind the sweep engine, the cluster coordinator, cxlbench's
// -run all, the sharded cache stream and the load harness (DESIGN.md §34).
// It imports only the standard library.
package pool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Run calls job(ctx, i) for every i in [0, n) on up to workers goroutines,
// the caller's among them, which claim indices in order from one counter,
// so one worker runs the jobs in index order on the caller's goroutine. A
// non-positive workers means runtime.GOMAXPROCS(0), and there are never
// more goroutines than n.
//
// The first job error or panic, or ctx ending, stops the claims and cancels
// the context the running jobs see; a claimed job always runs to its end.
// Once every worker has returned, Run re-panics a captured panic, with its
// own value, on the caller's goroutine. Otherwise it returns the first job
// error, or else ctx.Err() if some jobs were never claimed.
func Run(ctx context.Context, workers, n int, job func(ctx context.Context, i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	jobCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		panicVal any // the first panic's value; recover never returns nil for one
	)
	// fail keeps the first error and the first panic value, and stops the
	// claims.
	fail := func(err error, p any) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		if panicVal == nil {
			panicVal = p
		}
		mu.Unlock()
		cancel()
	}
	// work is one worker: it claims indices until they run out or the
	// claims stop, and a panic ends it.
	work := func() {
		defer func() {
			if p := recover(); p != nil {
				fail(nil, p)
			}
		}()
		for jobCtx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := job(jobCtx, i); err != nil {
				fail(err, nil)
			}
		}
	}
	// The caller's goroutine is the last worker, so one worker runs every
	// job on the caller's thread and no job is handed to another.
	for w := min(workers, n); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	if n > 0 {
		work()
	}
	wg.Wait()
	switch {
	case panicVal != nil:
		panic(panicVal)
	case firstErr != nil:
		return firstErr
	case int(next.Load()) < n:
		return ctx.Err()
	}
	return nil
}
