// Parallel sweep engine (DESIGN.md §5).
//
// Almost every experiment evaluates a grid of independent operating points —
// ratio × threads × QPS × device. Each point builds its own workload
// instance and RNG from Options.Seed and reads only immutable topology (the
// mlc experiments that mutate cache state build a private System per point),
// so points can fan out across a worker pool. Results are written into
// index-addressed slots and rows are assembled serially afterwards, making
// the rendered table byte-identical for every worker count — the
// serial-vs-parallel equivalence test asserts exactly that for every
// registered experiment.
package experiments

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// workers resolves the sweep fan-out: Options.Parallel if positive,
// otherwise every available CPU.
func (o Options) workers() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// context returns the options' context, Background when none is set.
func (o Options) context() context.Context {
	if o.Ctx == nil {
		return context.Background()
	}
	return o.Ctx
}

// forEachPoint evaluates eval(0..n-1) across the options' worker pool.
// eval must not share mutable state between indices. A panicking point is
// re-panicked on the caller's goroutine after the pool drains, matching the
// serial failure mode. When the options carry a context, cancellation stops
// workers from claiming further points and the sweep panics the context's
// error, which recoverAsErr returns — in-flight points finish (or stop at
// their own context check), queued ones never start, and the worker pool is
// freed for other requests.
func forEachPoint(o Options, n int, eval func(i int)) {
	ctx := o.context()
	workers := o.workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				panic(err)
			}
			eval(i)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if err := ctx.Err(); err != nil {
					panicMu.Lock()
					if panicked == nil {
						panicked = err
					}
					panicMu.Unlock()
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicMu.Lock()
							if panicked == nil {
								panicked = r
							}
							panicMu.Unlock()
						}
					}()
					eval(i)
				}()
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// sweepPoints maps the n independent operating points through eval and
// returns the results in index order regardless of completion order.
func sweepPoints[T any](o Options, n int, eval func(i int) T) []T {
	out := make([]T, n)
	forEachPoint(o, n, func(i int) {
		out[i] = eval(i)
	})
	return out
}
