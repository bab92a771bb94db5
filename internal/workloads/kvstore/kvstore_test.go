package kvstore

import (
	"context"
	"errors"
	"testing"

	"cxlmem/internal/topo"
	"cxlmem/internal/workloads/ycsb"
)

// openLoop is RunOpenLoop on a context that never ends, so it cannot fail.
func openLoop(s *Store, qps float64, ops int) LatencyResult {
	r, err := s.RunOpenLoop(context.Background(), ycsb.WorkloadA, ycsb.Uniform, qps, ops)
	if err != nil {
		panic(err)
	}
	return r
}

// maxQPS is MaxQPS on a context that never ends, so it cannot fail.
func maxQPS(s *Store, w ycsb.Workload) float64 {
	q, err := s.MaxQPS(context.Background(), w, ycsb.Uniform, 20000)
	if err != nil {
		panic(err)
	}
	return q
}

// TestRunsStopOnCanceledContext: the open loop, MaxQPS and the Fig. 7 run
// return the context's error once it is done, instead of a result.
func TestRunsStopOnCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := New(topo.NewSystem(topo.DefaultConfig()), testConfig(), "CXL-A", 40)
	if _, err := s.RunOpenLoop(ctx, ycsb.WorkloadA, ycsb.Uniform, 150000, 100000); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled RunOpenLoop err = %v, want context.Canceled", err)
	}
	if _, err := s.MaxQPS(ctx, ycsb.WorkloadA, ycsb.Uniform, 100000); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled MaxQPS err = %v, want context.Canceled", err)
	}
	if _, err := RunWithTPP(ctx, topo.NewSystem(topo.DefaultConfig()), testConfig(), "CXL-A", 40000, 20000); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled RunWithTPP err = %v, want context.Canceled", err)
	}
}

func testConfig() Config {
	c := DefaultConfig()
	c.Keys = 100_000 // smaller keyspace keeps tests fast
	return c
}

func TestServiceTimeDeviceSensitivity(t *testing.T) {
	sys := topo.NewSystem(topo.DefaultConfig())
	ddr := New(sys, testConfig(), "CXL-A", 0)
	cxl := New(sys, testConfig(), "CXL-A", 100)
	op := ycsb.Op{Type: ycsb.Read, Key: 42}
	sd := ddr.ServiceTime(op)
	sc := cxl.ServiceTime(op)
	if sc <= sd {
		t.Fatalf("CXL service %v should exceed DDR %v", sc, sd)
	}
	// The gap is meaningful but bounded: CPU time dominates (µs-scale app).
	if ratio := float64(sc) / float64(sd); ratio < 1.1 || ratio > 2.0 {
		t.Errorf("service ratio = %.2f, want within (1.1, 2.0)", ratio)
	}
}

func TestUpdateCostsMoreThanRead(t *testing.T) {
	sys := topo.NewSystem(topo.DefaultConfig())
	s := New(sys, testConfig(), "CXL-A", 100)
	read := s.ServiceTime(ycsb.Op{Type: ycsb.Read, Key: 1})
	upd := s.ServiceTime(ycsb.Op{Type: ycsb.Update, Key: 1})
	rmw := s.ServiceTime(ycsb.Op{Type: ycsb.ReadModifyWrite, Key: 1})
	if upd <= read {
		t.Error("update should cost more than read (temporal stores)")
	}
	if rmw <= upd {
		t.Error("rmw should cost more than update (read + write)")
	}
}

// TestFig6aShape: p99 grows with both the CXL page share and the target QPS,
// and explodes near saturation for CXL 100% while DDR 100% stays stable.
func TestFig6aShape(t *testing.T) {
	sys := topo.NewSystem(topo.DefaultConfig())
	cfg := testConfig()
	const ops = 30000

	p99 := func(pct float64, qps float64) float64 {
		s := New(sys, cfg, "CXL-A", pct)
		return openLoop(s, qps, ops).P99.Microseconds()
	}

	// Monotone in CXL share at a high load point.
	at85k := []float64{p99(0, 85000), p99(25, 85000), p99(50, 85000), p99(75, 85000), p99(100, 85000)}
	for i := 1; i < len(at85k); i++ {
		if at85k[i] < at85k[i-1]*0.95 {
			t.Errorf("p99 at 85k not monotone in CXL share: %v", at85k)
			break
		}
	}
	// CXL 100% should hurt much more at 85k than DDR 100%.
	if at85k[4] < 1.4*at85k[0] {
		t.Errorf("CXL100 p99 %.1fus should be well above DDR100 %.1fus at 85kQPS", at85k[4], at85k[0])
	}
	// At modest load the gap is small (paper: ~10% at 25k).
	lo0, lo100 := p99(0, 25000), p99(100, 25000)
	if lo100 > 1.8*lo0 {
		t.Errorf("low-load p99 gap too large: DDR %.1fus vs CXL %.1fus", lo0, lo100)
	}
}

func TestMaxQPSMatchesPaperRatios(t *testing.T) {
	sys := topo.NewSystem(topo.DefaultConfig())
	cfg := testConfig()
	base := maxQPS(New(sys, cfg, "CXL-A", 0), ycsb.WorkloadA)
	full := maxQPS(New(sys, cfg, "CXL-A", 100), ycsb.WorkloadA)
	// §5.2: CXL 100% gives ~30% lower throughput than DDR 100% for YCSB-A.
	drop := 1 - full/base
	if drop < 0.18 || drop > 0.40 {
		t.Errorf("YCSB-A max-QPS drop at CXL100 = %.2f, want ~0.30", drop)
	}
	// Intermediate ratios land in between and in order (Fig. 9b).
	prev := base
	for _, pct := range []float64{25, 50, 75} {
		q := maxQPS(New(sys, cfg, "CXL-A", pct), ycsb.WorkloadA)
		if q >= prev {
			t.Errorf("max QPS should fall with CXL share: %.0f at %v%% vs %.0f before", q, pct, prev)
		}
		prev = q
	}
	if base < 80_000 || base > 200_000 {
		t.Errorf("DDR-100%% max QPS = %.0f, want a Redis-like 80k-200k", base)
	}
}

func TestReadOnlyWorkloadLessSensitive(t *testing.T) {
	sys := topo.NewSystem(topo.DefaultConfig())
	cfg := testConfig()
	dropFor := func(w ycsb.Workload) float64 {
		base := maxQPS(New(sys, cfg, "CXL-A", 0), w)
		full := maxQPS(New(sys, cfg, "CXL-A", 100), w)
		return 1 - full/base
	}
	// Workload C (read-only) avoids store latency; drop should be smaller
	// than A's (Fig. 9b shows A/F hurt most).
	if dC, dA := dropFor(ycsb.WorkloadC), dropFor(ycsb.WorkloadA); dC >= dA {
		t.Errorf("read-only drop %.3f should be below 50/50 drop %.3f", dC, dA)
	}
}

// TestFig7TPPWorseThanStatic: TPP's ongoing migrations inflate the latency
// distribution relative to a static 25% interleave (finding F2).
func TestFig7TPPWorseThanStatic(t *testing.T) {
	sys := topo.NewSystem(topo.DefaultConfig())
	cfg := testConfig()
	cfg.Keys = 50_000
	res, err := RunWithTPP(context.Background(), sys, cfg, "CXL-A", 40000, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations == 0 {
		t.Fatal("TPP performed no migrations during the measured window")
	}
	if res.TPP.P99 <= res.Static.P99 {
		t.Errorf("TPP p99 %v should exceed static p99 %v", res.TPP.P99, res.Static.P99)
	}
	// Paper reports +174%; accept a broad band around "substantially worse".
	ratio := float64(res.TPP.P99) / float64(res.Static.P99)
	if ratio < 1.3 {
		t.Errorf("TPP/static p99 ratio = %.2f, want >= 1.3", ratio)
	}
}

func TestRunOpenLoopUtilization(t *testing.T) {
	sys := topo.NewSystem(topo.DefaultConfig())
	s := New(sys, testConfig(), "CXL-A", 0)
	light := openLoop(s, 10000, 5000)
	if light.Utilization > 0.3 {
		t.Errorf("light-load utilization = %v", light.Utilization)
	}
	if light.P50 > light.P99 {
		t.Error("p50 should not exceed p99")
	}
	if len(light.Latencies) != 5000 {
		t.Errorf("latency samples = %d", len(light.Latencies))
	}
}

func TestPanics(t *testing.T) {
	sys := topo.NewSystem(topo.DefaultConfig())
	s := New(sys, testConfig(), "CXL-A", 50)
	for name, fn := range map[string]func(){
		"bad cfg":     func() { New(sys, Config{}, "CXL-A", 0) },
		"bad qps":     func() { openLoop(s, 0, 10) },
		"bad ops":     func() { openLoop(s, 100, 0) },
		"bad samples": func() { s.MaxQPS(context.Background(), ycsb.WorkloadA, ycsb.Uniform, 0) },
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
