package dsb

import (
	"context"
	"errors"
	"testing"

	"cxlmem/internal/topo"
)

// run is Run on a context that never ends, so it cannot fail.
func run(sys *topo.System, w Workload, cxlName string, onCXL bool, qps float64, reqs int, seed uint64) Result {
	r, err := Run(context.Background(), sys, w, cxlName, onCXL, qps, reqs, seed)
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
	if _, err := Run(ctx, sys, Mixed, "CXL-A", true, 8000, 20000, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Run err = %v, want context.Canceled", err)
	}
}

func TestSpecsCoverTable2(t *testing.T) {
	for _, w := range []Workload{ComposePosts, ReadUserTimelines, Mixed} {
		spec := w.Spec()
		if spec[Frontend].WorkingSetMB != 83 || spec[Logic].WorkingSetMB != 208 || spec[Caching].WorkingSetMB != 628 {
			t.Errorf("%v: working sets diverge from Table 2", w)
		}
		for tier := Frontend; tier < numTiers; tier++ {
			if spec[tier].Servers <= 0 || spec[tier].BaseService <= 0 {
				t.Errorf("%v/%v: invalid spec", w, tier)
			}
		}
	}
}

// TestF3MarginalImpact: for compose posts and read user timelines, placing
// the caching tier entirely on CXL changes p99 by only a few percent at
// moderate load (paper Fig. 6b/6c).
func TestF3MarginalImpact(t *testing.T) {
	sys := topo.NewSystem(topo.DefaultConfig())
	cases := []struct {
		w   Workload
		qps float64
	}{
		{ComposePosts, 3000},
		{ReadUserTimelines, 20000},
	}
	for _, c := range cases {
		ddr := run(sys, c.w, "CXL-A", false, c.qps, 15000, 1)
		cxl := run(sys, c.w, "CXL-A", true, c.qps, 15000, 1)
		ratio := float64(cxl.P99) / float64(ddr.P99)
		if ratio > 1.15 {
			t.Errorf("%v: CXL/DDR p99 = %.2f, want ~1 (ms-scale app)", c.w, ratio)
		}
		if ratio < 0.9 {
			t.Errorf("%v: CXL unexpectedly faster at moderate load: %.2f", c.w, ratio)
		}
	}
}

// TestMixedCXLWindow: the bandwidth-hungry mixed workload flips — CXL
// placement beats DDR placement in the mid-QPS window (paper: 5–11 kQPS).
func TestMixedCXLWindow(t *testing.T) {
	sys := topo.NewSystem(topo.DefaultConfig())
	ddr := run(sys, Mixed, "CXL-A", false, 9500, 15000, 2)
	cxl := run(sys, Mixed, "CXL-A", true, 9500, 15000, 2)
	if cxl.P99 >= ddr.P99 {
		t.Errorf("mixed at 9.5k: CXL p99 %v should beat DDR p99 %v", cxl.P99, ddr.P99)
	}
	// At low QPS the ordering reverts (slightly) to DDR.
	ddrLo := run(sys, Mixed, "CXL-A", false, 2000, 15000, 2)
	cxlLo := run(sys, Mixed, "CXL-A", true, 2000, 15000, 2)
	if float64(cxlLo.P99) < float64(ddrLo.P99)*0.98 {
		t.Errorf("mixed at 2k: CXL p99 %v should not beat DDR p99 %v", cxlLo.P99, ddrLo.P99)
	}
}

func TestLatencyGrowsWithLoad(t *testing.T) {
	sys := topo.NewSystem(topo.DefaultConfig())
	lo := run(sys, ComposePosts, "CXL-A", false, 1000, 10000, 3)
	hi := run(sys, ComposePosts, "CXL-A", false, 5200, 10000, 3)
	if hi.P99 <= lo.P99 {
		t.Errorf("p99 should grow toward saturation: %v vs %v", lo.P99, hi.P99)
	}
	if lo.P50 > lo.P99 {
		t.Error("p50 exceeds p99")
	}
}

func TestDeterminism(t *testing.T) {
	sys := topo.NewSystem(topo.DefaultConfig())
	a := run(sys, ReadUserTimelines, "CXL-A", true, 10000, 5000, 7)
	b := run(sys, ReadUserTimelines, "CXL-A", true, 10000, 5000, 7)
	if a.P99 != b.P99 || a.P50 != b.P50 {
		t.Error("same-seed runs diverged")
	}
}

func TestRunPanics(t *testing.T) {
	sys := topo.NewSystem(topo.DefaultConfig())
	for name, fn := range map[string]func(){
		"qps":  func() { run(sys, Mixed, "CXL-A", false, 0, 10, 1) },
		"reqs": func() { run(sys, Mixed, "CXL-A", false, 100, 0, 1) },
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

func TestStrings(t *testing.T) {
	if ComposePosts.String() != "compose posts" || Mixed.String() != "mixed workloads" {
		t.Error("workload strings wrong")
	}
	if Caching.String() != "Caching & Storage" {
		t.Error("tier strings wrong")
	}
}
