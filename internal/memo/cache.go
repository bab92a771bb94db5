// Bounded, least-recently-used memoization (DESIGN.md §11).
//
// Cache memoizes expensive measurement results by canonical key with
// single-flight semantics: concurrent callers of Do/DoCtx with the same key
// block on one computation and share its result, so repeated matrix cells —
// the same scenario appearing in matrix-apps and matrix-policy, or a re-run
// under a different worker count — are free after the first evaluation.
//
// A Cache has one retention rule: a settled result stays resident until the
// entry budget evicts it. Every result this repository memoizes is a pure
// function of its canonical key — the platform registry is a table fixed at
// compile time — so nothing ever makes a resident entry stale. Entries sit on a
// recency list, and when a configured entry budget is exceeded the cache
// evicts the least-recently-used settled entry (DESIGN.md §29).
//
// Cancellation: DoCtx computations receive a context that is canceled once
// every caller waiting on the key has abandoned it, so a timed-out request
// stops its in-flight work instead of leaking it. Context-canceled results
// and panics are never retained — the next caller recomputes — while any
// other error is cached like a value: a failing cell fails the same way on
// every revisit instead of recomputing.
//
// Keys must be canonical (the scenario engine uses the Scenario.String of
// the cell with its options' platform and seed folded in, plus the
// fingerprint of quick mode; DESIGN.md §32): two keys are the same cell if
// and only if the strings are equal. A Cache is safe for concurrent use; the zero value is
// not — use NewCache or NewCacheWith.
package memo

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// CacheConfig bounds a Cache. The zero value — no entry budget — keeps every
// settled result.
type CacheConfig struct {
	// MaxEntries caps the resident entries when positive; the cache evicts
	// its least-recently-used settled entries to stay at the budget. 0
	// disables eviction. In-flight computations are never evicted, so under
	// heavy concurrency residency can transiently reach max(MaxEntries,
	// in-flight).
	MaxEntries int
}

// CacheStats is a point-in-time snapshot of a cache's counters — the raw
// material of the cxlserve /metrics endpoint.
type CacheStats struct {
	// Hits counts Do/DoCtx calls served from a computed or in-flight entry.
	Hits int64
	// Misses counts calls that started a fresh computation.
	Misses int64
	// Evictions counts entries dropped to keep the entry budget.
	Evictions int64
	// Size is the current resident entry count (computed + in-flight).
	Size int
	// InFlight is the number of computations currently running.
	InFlight int
}

// Cache is the bounded single-flight result cache. Use NewCache (unbounded)
// or NewCacheWith.
type Cache struct {
	mu      sync.Mutex
	cfg     CacheConfig
	entries map[string]*cacheEntry
	lru     *list.List // front = most recently used

	hits, misses, evictions int64
	inflight                int
}

// cacheEntry is one key's state. Result fields (val, err, panicVal) are
// written once, before done is closed, and only read after <-done.
type cacheEntry struct {
	key  string
	elem *list.Element

	done     chan struct{} // closed when the computation finishes
	val      any
	err      error
	panicVal any
	computed bool
	cctx     context.Context // the computation's context (for claim's retry test)

	waiters int // callers currently blocked on this entry
	cancel  context.CancelFunc
}

// NewCache creates an unbounded result cache.
func NewCache() *Cache { return NewCacheWith(CacheConfig{}) }

// NewCacheWith creates a cache with the given bounds.
func NewCacheWith(cfg CacheConfig) *Cache {
	return &Cache{cfg: cfg, entries: make(map[string]*cacheEntry), lru: list.New()}
}

// Configure replaces the cache's bounds, evicting down to a newly lowered
// entry budget immediately.
func (c *Cache) Configure(cfg CacheConfig) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cfg = cfg
	c.evictLocked()
}

// Do returns the memoized result for key, computing it with compute on the
// first call. Concurrent callers of the same key share one computation. A
// (non-context) error result is cached too: a failing cell fails the same
// way on every revisit instead of recomputing.
func (c *Cache) Do(key string, compute func() (any, error)) (any, error) {
	return c.DoCtx(context.Background(), key, func(context.Context) (any, error) { return compute() })
}

// DoCtx is Do with cancellation: ctx covers this caller's wait, and compute
// receives a context that is canceled once every waiter for the key has
// abandoned it (so orphaned work stops at its next cancellation check). When
// ctx ends first, DoCtx returns ctx.Err() immediately; the computation keeps
// running only while someone still wants it. Results that are context
// cancellations — and computations that panic (the panic is re-raised on
// every waiter) — are not retained, so one canceled request cannot poison
// the key for the next: a caller whose own ctx is still live never observes
// another caller's cancellation, it recomputes instead.
func (c *Cache) DoCtx(ctx context.Context, key string, compute func(ctx context.Context) (any, error)) (any, error) {
	for {
		v, err, retry := c.attempt(ctx, key, compute)
		if !retry {
			return v, err
		}
		// The entry this caller waited on was canceled out from under it
		// (its other waiters timed out) while this caller's ctx is still
		// live: try again on a fresh entry.
	}
}

// attempt is one pass of DoCtx: serve a hit, join an in-flight entry, or
// start a computation. retry reports that the awaited computation was
// canceled while the caller's own ctx is still live.
func (c *Cache) attempt(ctx context.Context, key string, compute func(ctx context.Context) (any, error)) (v any, err error, retry bool) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		if e.computed {
			c.lru.MoveToFront(e.elem)
			v, err := e.val, e.err
			c.mu.Unlock()
			return v, err, false
		}
		// In flight: join as a waiter.
		e.waiters++
		done := e.done
		c.mu.Unlock()
		select {
		case <-done:
			return c.claim(ctx, e)
		case <-ctx.Done():
			c.abandon(e)
			return nil, ctx.Err(), false
		}
	}
	// Miss: start the computation on its own goroutine under a context tied
	// to the waiter refcount, and wait like everyone else.
	c.misses++
	c.inflight++
	cctx, cancel := context.WithCancel(context.Background())
	e := &cacheEntry{key: key, done: make(chan struct{}), cancel: cancel, cctx: cctx, waiters: 1}
	c.entries[key] = e
	e.elem = c.lru.PushFront(e)
	c.evictLocked()
	c.mu.Unlock()
	go func() {
		defer func() {
			// A compute panic is captured here (finish has not run yet) and
			// re-raised on every waiter's goroutine by claim.
			if r := recover(); r != nil {
				c.finish(e, nil, nil, r)
			}
		}()
		v, err := compute(cctx)
		c.finish(e, v, err, nil)
	}()
	select {
	case <-e.done:
		return c.claim(ctx, e)
	case <-ctx.Done():
		c.abandon(e)
		return nil, ctx.Err(), false
	}
}

// claim reads a finished entry's result on behalf of one waiter, re-raising
// a computation panic on the waiter's goroutine. A computation that was
// canceled (all other waiters left) while this waiter's own ctx is still
// live reports retry instead of surfacing someone else's cancellation.
func (c *Cache) claim(ctx context.Context, e *cacheEntry) (any, error, bool) {
	c.mu.Lock()
	e.waiters--
	if e.panicVal != nil {
		c.mu.Unlock()
		panic(e.panicVal)
	}
	if canceledErr(e.err) && e.cctx.Err() != nil && ctx.Err() == nil {
		c.mu.Unlock()
		return nil, nil, true
	}
	v, err := e.val, e.err
	c.mu.Unlock()
	return v, err, false
}

// canceledErr reports whether err is a context cancellation.
func canceledErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// abandon drops one waiter; when the last waiter of an unfinished entry
// leaves, the computation's context is canceled so the work can stop.
func (c *Cache) abandon(e *cacheEntry) {
	c.mu.Lock()
	e.waiters--
	if e.waiters == 0 && !e.computed {
		e.cancel()
	}
	c.mu.Unlock()
}

// finish publishes a computation's outcome and decides retention: context
// cancellations and panics are dropped (next caller recomputes), anything
// else stays resident until the entry budget evicts it. An in-flight entry
// is never evicted, so it still owns its key here.
func (c *Cache) finish(e *cacheEntry, v any, err error, panicVal any) {
	c.mu.Lock()
	e.val, e.err, e.panicVal = v, err, panicVal
	e.computed = true
	c.inflight--
	e.cancel()
	if panicVal != nil || canceledErr(err) {
		c.removeLocked(e)
	}
	close(e.done)
	c.mu.Unlock()
}

// evictLocked enforces the entry budget: it walks the recency list from
// its tail and removes settled entries until the cache is back at the
// budget. In-flight entries are skipped — someone is waiting on them.
// Callers hold c.mu.
func (c *Cache) evictLocked() {
	if c.cfg.MaxEntries <= 0 {
		return
	}
	for el := c.lru.Back(); el != nil && len(c.entries) > c.cfg.MaxEntries; {
		e := el.Value.(*cacheEntry)
		el = el.Prev()
		if e.computed {
			c.removeLocked(e)
			c.evictions++
		}
	}
}

// removeLocked unlinks a resident entry from the map and recency list. An
// entry is removed at most once — by eviction when settled, or by finish
// when its result is not retained — and no key is ever re-inserted while
// its entry is resident. Callers hold c.mu.
func (c *Cache) removeLocked(e *cacheEntry) {
	delete(c.entries, e.key)
	c.lru.Remove(e.elem)
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Size:      len(c.entries),
		InFlight:  c.inflight,
	}
}
