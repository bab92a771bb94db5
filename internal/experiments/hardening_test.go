package experiments

// Hardening tests for the cancellation and bounded-cache paths (DESIGN.md
// §11). The platform registry is fixed once init has run — only topo's own
// profiles.go registers profiles — so the matrix-platform golden, which
// enumerates the registry, holds for every test in this binary.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"testing"
)

// TestSweepCancelStopsWork proves a canceled sweep stops claiming points:
// with 4 workers over 10k points and a context canceled almost immediately,
// the evaluated count must stay far below the grid size and the sweep must
// panic the context's error for the dispatcher to return.
func TestSweepCancelStopsWork(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	o := Options{Parallel: 4, Ctx: ctx}
	var evaluated atomic.Int64
	const n = 10000
	func() {
		defer func() {
			r := recover()
			err, ok := r.(error)
			if !ok {
				t.Fatalf("sweep panicked %v, want the context's error", r)
			}
			if !errors.Is(err, context.Canceled) {
				t.Errorf("sweep panicked %v, want context.Canceled", err)
			}
		}()
		forEachPoint(o, n, func(i int) {
			if evaluated.Add(1) == 2 {
				cancel()
			}
		})
		t.Fatal("canceled sweep returned normally")
	}()
	if got := evaluated.Load(); got >= n/10 {
		t.Errorf("canceled sweep still evaluated %d of %d points", got, n)
	}
}

// TestSerialSweepCancel covers the single-worker path of the same contract.
func TestSerialSweepCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	o := Options{Parallel: 1, Ctx: ctx}
	var evaluated int
	defer func() {
		if err, ok := recover().(error); !ok || !errors.Is(err, context.Canceled) {
			t.Fatal("serial sweep did not panic context.Canceled")
		}
		if evaluated != 3 {
			t.Errorf("evaluated %d points after cancel at 3", evaluated)
		}
	}()
	forEachPoint(o, 100, func(i int) {
		evaluated++
		if evaluated == 3 {
			cancel()
		}
	})
}

// TestRunDatasetCanceledNotCached checks the full dispatch path: a canceled
// request surfaces its context error, nothing is cached under the key, and
// the identical query afterward succeeds from a fresh evaluation.
func TestRunDatasetCanceledNotCached(t *testing.T) {
	o := DefaultOptions()
	o.Quick = true
	o.Parallel = 2
	o.Seed = 990101 // unique seed: a fresh dataset-cache key for this test
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o.Ctx = ctx
	before, _ := CacheStats()
	if _, err := RunDataset("matrix-size", o); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled RunDataset err = %v, want context.Canceled", err)
	}
	o.Ctx = nil
	d, err := RunDataset("matrix-size", o)
	if err != nil {
		t.Fatalf("retry after cancel: %v", err)
	}
	if len(d.Rows) == 0 {
		t.Error("retry produced an empty dataset")
	}
	after, _ := CacheStats()
	if after.Misses <= before.Misses {
		t.Error("retry should have recomputed (cache miss), not served a canceled result")
	}
}

// TestCanceledErrorMapsToStatus pins the sentinel wrapping the serve layer
// depends on: unknown IDs wrap ErrNotFound, driver panics wrap ErrInternal.
func TestCanceledErrorMapsToStatus(t *testing.T) {
	if _, err := Get("fig99"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(fig99) = %v, want ErrNotFound", err)
	}
	var err error
	func() {
		defer recoverAsErr("probe", &err)
		panic("driver bug")
	}()
	if !errors.Is(err, ErrInternal) || !strings.Contains(err.Error(), "driver bug") {
		t.Errorf("recovered panic = %v, want ErrInternal wrapping the panic value", err)
	}
	func() {
		err = nil
		defer recoverAsErr("probe", &err)
		panic(fmt.Errorf("cell: %w", context.DeadlineExceeded))
	}()
	if !errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrInternal) {
		t.Errorf("deadline panic = %v, want the context error, not ErrInternal", err)
	}
}

// TestGoldenStableUnderEviction is the churn acceptance test: with both
// process caches squeezed to a 4-entry budget (a tenth of the golden
// corpus), two full passes over every registered experiment must still
// render byte-identical to the committed goldens while evictions churn
// underneath.
func TestGoldenStableUnderEviction(t *testing.T) {
	ConfigureCaches(4)
	defer ConfigureCaches(0)
	dsBefore, cellBefore := CacheStats()
	o := DefaultOptions()
	o.Quick = true
	o.Parallel = 4 // sweeps fan out; rendered bytes are worker-count-invariant
	for pass := 1; pass <= 2; pass++ {
		for _, e := range All() {
			d, err := RunDataset(e.ID, o)
			if err != nil {
				t.Fatalf("pass %d: %s: %v", pass, e.ID, err)
			}
			want, err := os.ReadFile(goldenPath(e.ID))
			if err != nil {
				t.Fatal(err)
			}
			if got := d.Render(); got != string(want) {
				t.Errorf("pass %d: %s diverges from golden under eviction", pass, e.ID)
			}
		}
	}
	dsAfter, cellAfter := CacheStats()
	if dsAfter.Evictions <= dsBefore.Evictions {
		t.Error("dataset cache never evicted under a 4-entry budget")
	}
	if cellAfter.Evictions <= cellBefore.Evictions {
		t.Error("cell cache never evicted under a 4-entry budget")
	}
	if dsAfter.Size > 4 || cellAfter.Size > 4 {
		t.Errorf("cache sizes %d/%d exceed the 4-entry budget", dsAfter.Size, cellAfter.Size)
	}
}
