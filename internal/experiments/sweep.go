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

	"cxlmem/internal/pool"
)

// context returns the options' context, Background when none is set.
func (o Options) context() context.Context {
	if o.Ctx == nil {
		return context.Background()
	}
	return o.Ctx
}

// forEachPoint evaluates eval(0..n-1) on Options.Parallel workers (every
// CPU when not positive) through pool.Run, so one worker runs the points in
// index order. eval must not share mutable state between indices. The
// sweep's first failure — a panicking point, or the options' context ending
// before every point is claimed — stops the claims and is re-panicked on
// the caller's goroutine once the pool drains, and recoverAsErr returns a
// context error uncached.
func forEachPoint(o Options, n int, eval func(i int)) {
	if err := pool.Run(o.context(), o.Parallel, n, func(_ context.Context, i int) error {
		eval(i)
		return nil
	}); err != nil {
		panic(err)
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
