package mlc

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"cxlmem/internal/cache"
	"cxlmem/internal/memo"
	"cxlmem/internal/sim"
)

// Warm-state snapshot cache (DESIGN.md §15, §20).
//
// BufferLatency's warmup dominates its cost: bringing the hierarchy to
// steady state streams WarmMaxPasses buffer passes of random touches —
// millions of simulated accesses — before the first measured sample. But the
// post-warmup state is a pure function of (route class, buffer size, seed),
// up to the home bits each resident line carries: the warmup is a
// single-home read stream into a pristine hierarchy, and such a stream
// depends on its home only through the LLC slices it routes to
// (cache.RouteClass). So the same operating point re-measured — a re-run, a
// cxlserve cold-cache miss — and a point that merely routes alike re-simulate
// an identical warmup: fig5's CXL-A row is ablation-llc's isolation-broken
// row, and fig5's DDR5-L row (node-0 slices, local DDR) streams exactly like
// ablation-llc's isolation-kept CXL-A row (node-0 slices, CXL). warmStates
// memoizes the warmed state: a bounded, single-flight cache mapping the
// warmup key to a hierarchy Snapshot, the home it was warmed with, and the
// RNG state at the end of the warmup stream. A hit restores the snapshot
// rehomed to the caller's home (cache.RestoreRehomed) and resumes the RNG
// where the warmup left it, so the measurement pass consumes exactly the
// stream it would have after a cold warmup — byte-identical results, pinned
// by TestWarmStateByteIdentical, TestWarmStateSharedKey and the golden
// corpus.
//
// Keying deliberately excludes sample and worker counts: neither shapes the
// warmup stream. Canceled warmups are never retained (memo drops
// context-canceled results), and the cache only engages for hierarchies that
// have never simulated an access — anything else warms inline, exactly as
// before.

// DefaultWarmStateEntries is the warm-state cache's default entry budget.
// Each entry holds a full hierarchy snapshot (about 19.6 MB for the SPR
// model), so the budget is small; ConfigureWarmStates resizes or disables
// it.
const DefaultWarmStateEntries = 4

var (
	warmStates    = memo.NewCacheWith(memo.CacheConfig{MaxEntries: DefaultWarmStateEntries})
	warmStatesOff atomic.Bool
)

// ConfigureWarmStates resizes the warm-state cache's entry budget: positive
// bounds it, 0 makes it unbounded, negative disables warm-state caching
// entirely (every measurement warms inline). Resident entries above a
// lowered budget are evicted immediately.
func ConfigureWarmStates(maxEntries int) {
	warmStatesOff.Store(maxEntries < 0)
	if maxEntries >= 0 {
		warmStates.Configure(memo.CacheConfig{MaxEntries: maxEntries})
	}
}

// WarmStateStats snapshots the warm-state cache's counters — hits are
// measurements that restored a memoized warmup instead of re-simulating it.
// cxlserve exposes these on /metrics.
func WarmStateStats() memo.CacheStats { return warmStates.Stats() }

// warmKey canonicalizes everything that shapes a warmup: the route class
// of the home under the hierarchy configuration (a flat comparable value,
// so %+v is canonical), the buffer's line count and the RNG seed. The home
// itself and the isolation flag are left out: they reach the warmed state
// only through the route class and the home bits RestoreRehomed rewrites.
func warmKey(cfg cache.HierConfig, home cache.Home, lines int64, seed uint64) string {
	return fmt.Sprintf("%+v|lines=%d|seed=%d", cfg.RouteClass(home), lines, seed)
}

// warmState is one memoized warmup: the warmed hierarchy, the home it was
// warmed with and the RNG state at the end of the warmup stream.
type warmState struct {
	snap *cache.Snapshot
	home cache.Home
	rng  uint64 // sim.Rng state; NewRng(rng) resumes the measurement stream
}

// canceled reports whether err is a context cancellation.
func canceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// warmBuffer brings the hierarchy to the buffer measurement's steady state
// and returns the RNG positioned at the start of the measurement stream. A
// pristine hierarchy goes through the warm-state cache: a hit restores the
// memoized snapshot rehomed to home, a miss runs the warmup on this
// hierarchy and memoizes the result for the next caller. Hierarchies with
// prior simulated state — and any cache failure, including a refused
// restore (unreachable: one key means one route class) — warm inline,
// byte-identical either way. A context cancellation unwinds as a panic
// carrying ctx's error, matching the sweep engine's cancellation
// convention (experiments.recoverAsErr restores it).
func warmBuffer(ctx context.Context, hier *cache.Hierarchy, home cache.Home, lines int64, seed uint64, o StreamOptions) *sim.Rng {
	if !warmStatesOff.Load() && hier.Pristine() {
		key := warmKey(hier.Config(), home, lines, seed)
		warmedHere := false
		v, err := warmStates.DoCtx(ctx, key, func(cctx context.Context) (any, error) {
			// The computation warms this caller's own hierarchy — the result
			// is wanted there anyway, so a miss costs no extra simulation.
			// DoCtx runs a caller's closure at most once, so it always finds
			// the hierarchy pristine.
			warmedHere = true
			r := sim.NewRng(seed)
			if err := runWarmup(cctx, hier, home, lines, r, o.Workers); err != nil {
				return nil, err
			}
			return &warmState{snap: hier.Capture(), home: home, rng: r.State()}, nil
		})
		if err == nil {
			// A warmup that ran on this very hierarchy left it in the
			// snapshot's state already.
			ws := v.(*warmState)
			if warmedHere || hier.RestoreRehomed(ws.snap, ws.home, home) {
				return sim.NewRng(ws.rng)
			}
		}
		if canceled(err) || warmedHere {
			// A cancellation unwinds as a panic (the sweep convention). A
			// hierarchy the closure already warmed must never fall through
			// to a second inline warmup — unreachable in practice (the
			// closure only fails on cancellation, so err is set), but fail
			// loudly rather than corrupt the measurement.
			panic(err)
		}
		// This hierarchy was never touched (the closure ran elsewhere or not
		// at all) and the failure was not a cancellation: warm inline below.
	}
	rng := sim.NewRng(seed)
	if err := runWarmup(ctx, hier, home, lines, rng, o.Workers); err != nil {
		panic(err)
	}
	return rng
}
