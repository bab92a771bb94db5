package fio

import (
	"context"
	"errors"
	"testing"

	"cxlmem/internal/topo"
)

// run is Run on a context that never ends, so it cannot fail.
func run(sys *topo.System, cachePath *topo.Path, cfg Config, blockBytes, ios int) Result {
	r, err := Run(context.Background(), sys, cachePath, cfg, blockBytes, ios)
	if err != nil {
		panic(err)
	}
	return r
}

// TestRunStopsOnCanceledContext: a run whose context is already done
// returns the context's error instead of a result.
func TestRunStopsOnCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sys := topo.NewSystem(topo.DefaultConfig())
	if _, err := Run(ctx, sys, sys.DDRLocal, DefaultConfig(), 4096, 40000); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Run err = %v, want context.Canceled", err)
	}
}

func TestHitRateCalibration(t *testing.T) {
	cfg := DefaultConfig()
	// Paper quotes 76% at 8 KB and 65% at 128 KB.
	if h := cfg.hitRate(8 << 10); h < 0.74 || h > 0.78 {
		t.Errorf("hit(8K) = %v, want ~0.76", h)
	}
	if h := cfg.hitRate(128 << 10); h < 0.63 || h > 0.67 {
		t.Errorf("hit(128K) = %v, want ~0.65", h)
	}
	// Monotone non-increasing with a floor.
	prev := 1.0
	for _, b := range BlockSizes() {
		h := cfg.hitRate(b)
		if h > prev {
			t.Errorf("hit rate rose at %d", b)
		}
		prev = h
	}
}

// TestFig8Shape: the CXL p99 penalty is a few percent at 4–8 KB, shrinks in
// the storage-dominated middle, and grows again at 256 KB+.
func TestFig8Shape(t *testing.T) {
	sys := topo.NewSystem(topo.DefaultConfig())
	cfg := DefaultConfig()
	var ddr, cxl []Result
	for _, b := range BlockSizes() {
		ddr = append(ddr, run(sys, sys.DDRLocal, cfg, b, 40000))
		cxl = append(cxl, run(sys, sys.Path("CXL-A"), cfg, b, 40000))
	}
	inc := make([]float64, len(ddr))
	for i := range ddr {
		inc[i] = (float64(cxl[i].P99)/float64(ddr[i].P99) - 1) * 100
		if inc[i] < 0 {
			t.Errorf("block %d: CXL p99 below DDR (%.2f%%)", ddr[i].BlockBytes, inc[i])
		}
	}
	// 4K and 8K: low-single-digit percent increases.
	if inc[0] < 0.5 || inc[0] > 8 {
		t.Errorf("4K increase = %.1f%%, want low single digits", inc[0])
	}
	// Middle (32–64K) lower than the small-block peak.
	if inc[3] >= inc[1] {
		t.Errorf("32K increase %.1f%% should be below 8K %.1f%% (storage dominates)", inc[3], inc[1])
	}
	// Large blocks: renewed rise from CXL write-bandwidth pressure.
	if inc[len(inc)-1] <= inc[3] {
		t.Errorf("512K increase %.1f%% should exceed 32K %.1f%%", inc[len(inc)-1], inc[3])
	}
}

func TestP99GrowsWithBlockSize(t *testing.T) {
	sys := topo.NewSystem(topo.DefaultConfig())
	cfg := DefaultConfig()
	prev := 0.0
	for _, b := range []int{4 << 10, 64 << 10, 512 << 10} {
		r := run(sys, sys.DDRLocal, cfg, b, 20000)
		if v := r.P99.Microseconds(); v <= prev {
			t.Errorf("p99 should grow with block size: %v at %d", v, b)
		} else {
			prev = v
		}
	}
}

func TestDeterminism(t *testing.T) {
	sys := topo.NewSystem(topo.DefaultConfig())
	a := run(sys, sys.DDRLocal, DefaultConfig(), 8<<10, 5000)
	b := run(sys, sys.DDRLocal, DefaultConfig(), 8<<10, 5000)
	if a.P99 != b.P99 {
		t.Error("same-seed runs diverged")
	}
}

func TestRunPanics(t *testing.T) {
	sys := topo.NewSystem(topo.DefaultConfig())
	for name, fn := range map[string]func(){
		"block": func() { run(sys, sys.DDRLocal, DefaultConfig(), 1024, 10) },
		"ios":   func() { run(sys, sys.DDRLocal, DefaultConfig(), 4096, 0) },
		"cfg":   func() { run(sys, sys.DDRLocal, Config{}, 4096, 10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
