package memo

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCacheBoundedChurn is the bounded-cache acceptance check: a keyspace
// 10x the entry budget churns through the cache; residency never exceeds
// the budget, the frequently-revisited hot keys stay resident (their hit
// rate clears a pinned floor: five requests separate a hot key's visits,
// so it never reaches the tail of the 8-entry recency list), and every
// returned value stays correct through eviction/recompute cycles.
func TestCacheBoundedChurn(t *testing.T) {
	const (
		budget   = 8
		keyspace = 80
		rounds   = 50
	)
	c := NewCacheWith(CacheConfig{MaxEntries: budget})
	computes := make(map[string]int)
	get := func(key string) {
		v, err := c.Do(key, func() (any, error) {
			computes[key]++
			return "v:" + key, nil
		})
		if err != nil || v.(string) != "v:"+key {
			t.Fatalf("Do(%q) = %v, %v", key, v, err)
		}
		if n := c.Stats().Size; n > budget {
			t.Fatalf("cache size %d exceeds budget %d", n, budget)
		}
	}
	hot := []string{"hot-a", "hot-b", "hot-c", "hot-d"}
	cold := 0
	for r := 0; r < rounds; r++ {
		for _, h := range hot {
			get(h)
		}
		// Two fresh cold keys per round churn the tail.
		for i := 0; i < 2; i++ {
			get(fmt.Sprintf("cold-%d", cold%keyspace))
			cold++
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("churn produced no evictions")
	}
	if st.Size > budget {
		t.Errorf("final size %d exceeds budget %d", st.Size, budget)
	}
	// Hot keys were requested rounds times each; eviction must have kept
	// them resident nearly always. Floor: at most 3 recomputes per hot key
	// (hit rate >= 94%).
	for _, h := range hot {
		if computes[h] > 3 {
			t.Errorf("hot key %q recomputed %d times; eviction dropped a recently used entry", h, computes[h])
		}
	}
}

// TestCacheCancelNotRetained proves a canceled computation is not cached:
// the caller gets ctx.Err() immediately, the in-flight work's context fires
// once the last waiter leaves, and the next call recomputes successfully.
func TestCacheCancelNotRetained(t *testing.T) {
	c := NewCache()
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	canceled := make(chan struct{})
	go func() {
		<-started
		cancel()
	}()
	_, err := c.DoCtx(ctx, "k", func(cctx context.Context) (any, error) {
		close(started)
		<-cctx.Done() // the refcount hitting zero must cancel us
		close(canceled)
		return nil, cctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	select {
	case <-canceled:
	case <-time.After(5 * time.Second):
		t.Fatal("abandoned computation never saw cancellation")
	}
	// The canceled outcome must not be resident; a fresh call recomputes.
	v, err := c.Do("k", func() (any, error) { return "fresh", nil })
	if err != nil || v.(string) != "fresh" {
		t.Fatalf("recompute after cancel = %v, %v", v, err)
	}
}

// TestCacheSharedWaiterSurvivesCancel: when two callers share a key and one
// cancels, the computation keeps running for the survivor.
func TestCacheSharedWaiterSurvivesCancel(t *testing.T) {
	c := NewCache()
	inFlight := make(chan struct{})
	release := make(chan struct{})
	type res struct {
		v   any
		err error
	}
	second := make(chan res, 1)
	ctx1, cancel1 := context.WithCancel(context.Background())
	first := make(chan res, 1)
	go func() {
		v, err := c.DoCtx(ctx1, "k", func(cctx context.Context) (any, error) {
			close(inFlight)
			select {
			case <-release:
				return "done", nil
			case <-cctx.Done():
				return nil, cctx.Err()
			}
		})
		first <- res{v, err}
	}()
	<-inFlight
	go func() {
		v, err := c.DoCtx(context.Background(), "k", func(context.Context) (any, error) {
			t.Error("second caller started a duplicate computation")
			return nil, nil
		})
		second <- res{v, err}
	}()
	// Give the second caller a moment to join as a waiter, then cancel the
	// first: the computation must survive because a waiter remains.
	time.Sleep(20 * time.Millisecond)
	cancel1()
	r1 := <-first
	if !errors.Is(r1.err, context.Canceled) {
		t.Fatalf("canceled caller got %v, %v", r1.v, r1.err)
	}
	close(release)
	r2 := <-second
	if r2.err != nil || r2.v.(string) != "done" {
		t.Fatalf("surviving waiter got %v, %v", r2.v, r2.err)
	}
}

// TestCachePanicPropagatesUnretained: a panicking compute re-raises on the
// caller and leaves no poisoned entry behind.
func TestCachePanicPropagates(t *testing.T) {
	c := NewCache()
	got := func() (r any) {
		defer func() { r = recover() }()
		_, _ = c.Do("k", func() (any, error) { panic("boom") })
		return nil
	}()
	if got != "boom" {
		t.Fatalf("recovered %v, want boom", got)
	}
	if size := c.Stats().Size; size != 0 {
		t.Fatalf("panicked entry retained (Size=%d)", size)
	}
	v, err := c.Do("k", func() (any, error) { return "ok", nil })
	if err != nil || v.(string) != "ok" {
		t.Fatalf("recompute after panic = %v, %v", v, err)
	}
}

// TestCacheConcurrentChurn hammers a bounded cache from many goroutines
// (run under -race in CI): all results stay correct, the budget holds at
// quiescence and counters are consistent.
func TestCacheConcurrentChurn(t *testing.T) {
	const budget = 16
	c := NewCacheWith(CacheConfig{MaxEntries: budget})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g*7+i*13)%64)
				want := "v:" + key
				v, err := c.Do(key, func() (any, error) { return want, nil })
				if err != nil || v.(string) != want {
					t.Errorf("Do(%q) = %v, %v", key, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Size > budget {
		t.Errorf("size %d exceeds budget %d at quiescence", st.Size, budget)
	}
	if st.InFlight != 0 {
		t.Errorf("in-flight %d at quiescence", st.InFlight)
	}
	if st.Hits+st.Misses == 0 || st.Evictions == 0 {
		t.Errorf("implausible counters: %+v", st)
	}
}

// TestCacheConfigureShrinks: lowering the budget evicts down immediately.
func TestCacheConfigureShrinks(t *testing.T) {
	c := NewCache()
	for i := 0; i < 10; i++ {
		if _, err := c.Do(fmt.Sprintf("k%d", i), func() (any, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	c.Configure(CacheConfig{MaxEntries: 3})
	if n := c.Stats().Size; n != 3 {
		t.Fatalf("size after shrink = %d, want 3", n)
	}
	if st := c.Stats(); st.Evictions != 7 {
		t.Errorf("evictions = %d, want 7", st.Evictions)
	}
}

// TestCacheWaiterRetriesAfterCancel pins the no-inherited-cancellation
// guarantee: a waiter with a live context that joined a computation right
// as its other callers canceled it must not surface their context error —
// it recomputes on a fresh entry.
func TestCacheWaiterRetriesAfterCancel(t *testing.T) {
	c := NewCache()
	var calls atomic.Int64
	started := make(chan struct{})
	proceed := make(chan struct{})
	compute := func(cctx context.Context) (any, error) {
		if calls.Add(1) == 1 {
			close(started)
			<-proceed
			return nil, cctx.Err() // canceled: caller A abandoned the key
		}
		return 42, nil
	}
	ctxA, cancelA := context.WithCancel(context.Background())
	aErr := make(chan error, 1)
	go func() {
		_, err := c.DoCtx(ctxA, "k", compute)
		aErr <- err
	}()
	<-started
	cancelA()
	if err := <-aErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("caller A err = %v, want context.Canceled", err)
	}
	// Caller B joins while the canceled computation is still unwinding.
	bDone := make(chan struct{})
	var bVal any
	var bErr error
	go func() {
		defer close(bDone)
		bVal, bErr = c.DoCtx(context.Background(), "k", compute)
	}()
	// B joining the in-flight entry registers as a hit; wait for it before
	// letting the doomed computation publish its cancellation.
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Hits == 0 {
		if time.Now().After(deadline) {
			t.Fatal("caller B never joined the in-flight entry")
		}
	}
	close(proceed)
	<-bDone
	if bErr != nil || bVal != 42 {
		t.Fatalf("caller B got (%v, %v), want (42, nil)", bVal, bErr)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("compute ran %d times, want 2 (canceled + retry)", got)
	}
}
