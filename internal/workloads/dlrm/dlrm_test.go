package dlrm

import (
	"testing"

	"cxlmem/internal/topo"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.HotFraction = 2
	if err := bad.Validate(); err == nil {
		t.Error("bad hot fraction should fail")
	}
	bad = DefaultConfig()
	bad.ThreadMLP = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero MLP should fail")
	}
}

func TestHitRatePiecewise(t *testing.T) {
	cfg := DefaultConfig() // hot 40MB @ 0.75, cold 472MB @ 0.25
	// 15 MB cache: 0.75 × 15/40 ≈ 0.281.
	if h := cfg.hitRate(15 << 20); h < 0.26 || h > 0.30 {
		t.Errorf("hit(15MB) = %v, want ~0.28", h)
	}
	// 60 MB: hot fully cached + a sliver of cold ≈ 0.76.
	if h := cfg.hitRate(60 << 20); h < 0.74 || h > 0.78 {
		t.Errorf("hit(60MB) = %v, want ~0.76", h)
	}
	// Everything cached.
	if h := cfg.hitRate(1 << 40); h < 0.999 {
		t.Errorf("hit(1TB) = %v, want ~1", h)
	}
	if h := cfg.hitRate(0); h != 0 {
		t.Errorf("hit(0) = %v", h)
	}
}

// TestFig9aSaturationAndOptimum: DDR-only throughput saturates past ~20
// threads; at 32 threads a ~63% CXL allocation maximizes throughput with a
// gain near the paper's 88%.
func TestFig9aSaturationAndOptimum(t *testing.T) {
	sys := topo.NewSystem(topo.DefaultConfig())
	cfg := DefaultConfig()

	// Saturation: going 20 -> 32 threads at DDR 100% gains little.
	q20 := Run(sys, cfg, "CXL-A", 0, 20, SNCAlone).QueriesPerSec
	q32 := Run(sys, cfg, "CXL-A", 0, 32, SNCAlone).QueriesPerSec
	if q32 > q20*1.25 {
		t.Errorf("DDR-only 32t/20t = %.2f, want saturation (< 1.25)", q32/q20)
	}
	// Scaling region: 4 -> 16 threads grows markedly.
	q4 := Run(sys, cfg, "CXL-A", 0, 4, SNCAlone).QueriesPerSec
	q16 := Run(sys, cfg, "CXL-A", 0, 16, SNCAlone).QueriesPerSec
	if q16 < q4*2.5 {
		t.Errorf("4->16 thread scaling = %.2f, want >= 2.5", q16/q4)
	}

	// The paper measures the optimum at 63 % with an 88 % gain; our model
	// places it at ~48 % with ~72 % — same interior-optimum shape (see
	// EXPERIMENTS.md for the deviation discussion).
	best, bestQPS := BestRatio(sys, cfg, "CXL-A", 32, SNCAlone, 1)
	if best < 40 || best > 75 {
		t.Errorf("optimal CXL share = %v%%, want interior (paper ~63%%)", best)
	}
	gain := bestQPS/q32 - 1
	if gain < 0.4 || gain > 1.3 {
		t.Errorf("best-vs-DDR100 gain = %.2f, paper ~0.88", gain)
	}
}

// TestTable3Scenarios reproduces Table 3's structure: CXL 100% is nearly as
// fast as DDR 100% when one SNC node runs alone (LLC isolation broken in
// CXL's favor), but collapses to ~0.5 when all four nodes contend.
func TestTable3Scenarios(t *testing.T) {
	sys := topo.NewSystem(topo.DefaultConfig())
	cfg := DefaultConfig()
	const threads = 8

	ddrAlone := Run(sys, cfg, "CXL-A", 0, threads, SNCAlone).QueriesPerSec
	cxlAlone := Run(sys, cfg, "CXL-A", 100, threads, SNCAlone).QueriesPerSec
	cxlContended := Run(sys, cfg, "CXL-A", 100, threads, SNCContended).QueriesPerSec

	alone := cxlAlone / ddrAlone
	if alone < 0.85 || alone > 1.05 {
		t.Errorf("1-node CXL100/DDR100 = %.3f, paper 0.947", alone)
	}
	contended := cxlContended / ddrAlone
	if contended < 0.35 || contended > 0.70 {
		t.Errorf("4-node CXL100/DDR100 = %.3f, paper 0.504", contended)
	}
	if contended >= alone {
		t.Error("contention should hurt the CXL run")
	}
}

// TestFig11Correlations: as the CXL share sweeps up, consumed bandwidth
// first rises then falls (11a) and throughput correlates inversely with L1
// miss latency (11b).
func TestFig11Correlations(t *testing.T) {
	sys := topo.NewSystem(topo.DefaultConfig())
	cfg := DefaultConfig()
	ratios := []float64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	results := make([]Result, len(ratios))
	for i, r := range ratios {
		results[i] = Run(sys, cfg, "CXL-A", r, 24, SNCAlone)
	}

	// Throughput and bandwidth both peak somewhere strictly inside.
	bestQ, bestI := 0.0, 0
	for i, r := range results {
		if r.QueriesPerSec > bestQ {
			bestQ, bestI = r.QueriesPerSec, i
		}
	}
	if bestI == 0 || bestI == len(results)-1 {
		t.Errorf("throughput peak at boundary ratio %v", ratios[bestI])
	}
	// Inverse relation with L1 miss latency: the max-throughput point has
	// lower L1 miss latency than the extremes.
	if results[bestI].Sample.L1MissLatencyNS >= results[len(results)-1].Sample.L1MissLatencyNS {
		t.Error("peak throughput should have lower L1 miss latency than CXL 100%")
	}
	// Higher-IPC points are higher-throughput points (same direction).
	if results[bestI].Sample.IPC <= results[len(results)-1].Sample.IPC {
		t.Error("peak throughput should have higher IPC than CXL 100%")
	}
}

func TestSampleFieldsPopulated(t *testing.T) {
	sys := topo.NewSystem(topo.DefaultConfig())
	r := Run(sys, DefaultConfig(), "CXL-A", 40, 16, SNCAlone)
	s := r.Sample
	if s.L1MissLatencyNS <= 0 || s.DDRReadLatencyNS <= 0 || s.IPC <= 0 || s.SystemBandwidthGBs <= 0 {
		t.Errorf("sample has empty fields: %+v", s)
	}
	if s.CXLPercent != 40 {
		t.Errorf("sample CXL percent = %v", s.CXLPercent)
	}
}

// TestCalibrationSweep: one point per ratio 0..100, each the 24-thread
// SNC-alone run at that ratio, its throughput over the all-DDR point's.
func TestCalibrationSweep(t *testing.T) {
	sys := topo.NewSystem(topo.DefaultConfig())
	samples, thr := CalibrationSweep(sys, "CXL-A", 10)
	if len(samples) != 11 || len(thr) != 11 {
		t.Fatalf("sweep has %d samples and %d throughputs, want 11 of each", len(samples), len(thr))
	}
	base := Run(sys, DefaultConfig(), "CXL-A", 0, 24, SNCAlone).QueriesPerSec
	for i, s := range samples {
		r := Run(sys, DefaultConfig(), "CXL-A", float64(10*i), 24, SNCAlone)
		if s != r.Sample || thr[i] != r.QueriesPerSec/base {
			t.Errorf("point %d = %+v, %v; want the %v%% run %+v, %v", i, s, thr[i], 10*i, r.Sample, r.QueriesPerSec/base)
		}
	}
}

func TestRunPanics(t *testing.T) {
	sys := topo.NewSystem(topo.DefaultConfig())
	for name, fn := range map[string]func(){
		"threads": func() { Run(sys, DefaultConfig(), "CXL-A", 0, 0, SNCAlone) },
		"ratio":   func() { Run(sys, DefaultConfig(), "CXL-A", 150, 8, SNCAlone) },
		"step":    func() { BestRatio(sys, DefaultConfig(), "CXL-A", 8, SNCAlone, 0) },
		"sweep":   func() { CalibrationSweep(sys, "CXL-A", 0) },
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
