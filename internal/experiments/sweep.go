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

// forEachPoint evaluates eval(0..n-1) across the options' worker pool;
// one worker runs the points in index order. eval must not share mutable
// state between indices. The sweep's first failure — a panicking point, or
// the options' context ending — stops every worker from claiming another
// point and is re-panicked on the caller's goroutine once the pool drains:
// in-flight points finish (or stop at their own context check), queued ones
// never start, and recoverAsErr returns a context error uncached.
func forEachPoint(o Options, n int, eval func(i int)) {
	ctx := o.context()
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		failMu  sync.Mutex
		failure any
	)
	fail := func(r any) {
		failMu.Lock()
		if failure == nil {
			failure = r
		}
		failMu.Unlock()
		next.Store(int64(n))
	}
	for w := min(o.workers(), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							fail(r)
						}
					}()
					eval(i)
				}()
			}
		}()
	}
	wg.Wait()
	if failure != nil {
		panic(failure)
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
