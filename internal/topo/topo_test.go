package topo

import (
	"math"
	"testing"

	"cxlmem/internal/cache"
	"cxlmem/internal/mem"
)

func ratio(a, b float64) float64 { return a / b }

func TestNewSystemBuilds(t *testing.T) {
	s := NewSystem(MicrobenchConfig())
	if len(s.Paths()) != 5 {
		t.Fatalf("expected 5 paths, got %d", len(s.Paths()))
	}
	if len(s.ComparisonPaths()) != 4 {
		t.Fatalf("expected 4 comparison paths")
	}
	for _, p := range s.Paths() {
		if err := p.Device.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
	if s.Path("CXL-A") == nil || s.Path("DDR5-L") == nil || s.Path("DDR5-R") == nil {
		t.Error("Path lookup failed")
	}
}

func TestNewSystemPanicsOnBadConfig(t *testing.T) {
	badSNC := DefaultConfig()
	badSNC.SNCNodes = 3
	zeroChannel := DefaultConfig()
	zeroChannel.LocalDDRChannels = 0
	for name, cfg := range map[string]Spec{
		"bad snc":      badSNC,
		"zero channel": zeroChannel,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			NewSystem(cfg)
		}()
	}
}

func TestPathUnknownPanics(t *testing.T) {
	s := NewSystem(MicrobenchConfig())
	defer func() {
		if recover() == nil {
			t.Error("unknown device should panic")
		}
	}()
	s.Path("CXL-Z")
}

// TestSerialLoadLatencyCalibration pins the MLC idle-latency landscape of
// Fig. 3: DDR5-L ~110 ns; DDR5-R ~1.6–1.8×; CXL-A ~2.4–2.7×;
// CXL-B ~3.6–4.0×; CXL-C ~5.3–6.0× (FPGA soft IP).
func TestSerialLoadLatencyCalibration(t *testing.T) {
	s := NewSystem(MicrobenchConfig())
	base := s.DDRLocal.SerialLatency(mem.Load).Nanoseconds()
	if base < 100 || base > 120 {
		t.Errorf("DDR5-L MLC latency = %.1f ns, want ~110", base)
	}
	cases := []struct {
		name   string
		lo, hi float64
	}{
		{"DDR5-R", 1.55, 1.85},
		{"CXL-A", 2.35, 2.75},
		{"CXL-B", 3.55, 4.05},
		{"CXL-C", 5.2, 6.1},
	}
	for _, c := range cases {
		r := ratio(s.Path(c.name).SerialLatency(mem.Load).Nanoseconds(), base)
		if r < c.lo || r > c.hi {
			t.Errorf("%s MLC latency ratio = %.2f, want [%v, %v]", c.name, r, c.lo, c.hi)
		}
	}
}

// TestO2ControllerDependence: CXL-C (DDR4-3200, faster DRAM than CXL-B's
// DDR4-2400) still has far higher load latency because of the FPGA soft IP.
func TestO2ControllerDependence(t *testing.T) {
	s := NewSystem(MicrobenchConfig())
	b := s.Path("CXL-B").SerialLatency(mem.Load)
	c := s.Path("CXL-C").SerialLatency(mem.Load)
	if float64(c) < 1.4*float64(b) {
		t.Errorf("CXL-C (%v) should be ≥1.4× CXL-B (%v) despite faster DRAM", c, b)
	}
	if s.Path("CXL-B").Device.Tech.AccessLatency <= s.Path("CXL-C").Device.Tech.AccessLatency {
		t.Error("precondition: CXL-B DRAM should be slower than CXL-C DRAM")
	}
}

// TestO1ParallelAmortization: memo's parallel accesses cut per-access latency
// by ~76 % for DDR5-R and ~79 % for CXL-A relative to MLC (§4.1).
func TestO1ParallelAmortization(t *testing.T) {
	s := NewSystem(MicrobenchConfig())
	for _, c := range []struct {
		name   string
		lo, hi float64 // expected reduction fraction
	}{
		{"DDR5-R", 0.73, 0.79},
		{"CXL-A", 0.77, 0.82},
	} {
		p := s.Path(c.name)
		serial := p.SerialLatency(mem.Load).Nanoseconds()
		par := p.ParallelLatency(mem.Load).Nanoseconds()
		red := 1 - par/serial
		if red < c.lo || red > c.hi {
			t.Errorf("%s parallel reduction = %.3f, want [%v, %v]", c.name, red, c.lo, c.hi)
		}
	}
}

// TestO3TrueCXLAmortizesBetter: CXL-A amortizes a larger share of its serial
// latency than DDR5-R because its coherence checks don't congest UPI, and
// memo ld for CXL-A lands ~1.35× DDR5-R (§4.1).
func TestO3TrueCXLAmortizesBetter(t *testing.T) {
	s := NewSystem(MicrobenchConfig())
	r := s.Path("DDR5-R")
	a := s.Path("CXL-A")
	redR := 1 - r.ParallelLatency(mem.Load).Nanoseconds()/r.SerialLatency(mem.Load).Nanoseconds()
	redA := 1 - a.ParallelLatency(mem.Load).Nanoseconds()/a.SerialLatency(mem.Load).Nanoseconds()
	if redA <= redR {
		t.Errorf("CXL-A reduction (%.3f) should exceed DDR5-R (%.3f)", redA, redR)
	}
	got := a.ParallelLatency(mem.Load).Nanoseconds() / r.ParallelLatency(mem.Load).Nanoseconds()
	if math.Abs(got-1.35) > 0.1 {
		t.Errorf("memo ld CXL-A / DDR5-R = %.2f, want ~1.35", got)
	}
}

// TestFig3MemoOrdering: memo ld latencies order DDR5-R < CXL-A < CXL-B <
// CXL-C, with CXL-B ~2× and CXL-C ~3× DDR5-R (§4.1 O2).
func TestFig3MemoOrdering(t *testing.T) {
	s := NewSystem(MicrobenchConfig())
	r := s.Path("DDR5-R").ParallelLatency(mem.Load).Nanoseconds()
	a := s.Path("CXL-A").ParallelLatency(mem.Load).Nanoseconds()
	b := s.Path("CXL-B").ParallelLatency(mem.Load).Nanoseconds()
	c := s.Path("CXL-C").ParallelLatency(mem.Load).Nanoseconds()
	if !(r < a && a < b && b < c) {
		t.Fatalf("memo ld ordering broken: R=%.0f A=%.0f B=%.0f C=%.0f", r, a, b, c)
	}
	if rb := b / r; math.Abs(rb-2.0) > 0.25 {
		t.Errorf("CXL-B/DDR5-R = %.2f, want ~2", rb)
	}
	if rc := c / r; math.Abs(rc-3.0) > 0.35 {
		t.Errorf("CXL-C/DDR5-R = %.2f, want ~3", rc)
	}
}

// TestNTLoadMatchesLoad: nt-ld latencies are similar to ld for every device
// because coherence still applies to cacheable regions (§4.1).
func TestNTLoadMatchesLoad(t *testing.T) {
	s := NewSystem(MicrobenchConfig())
	for _, p := range s.Paths() {
		ld := p.ParallelLatency(mem.Load).Nanoseconds()
		nt := p.ParallelLatency(mem.NTLoad).Nanoseconds()
		if math.Abs(ld-nt)/ld > 0.05 {
			t.Errorf("%s: nt-ld %.1f vs ld %.1f differ by >5%%", p.Name, nt, ld)
		}
	}
}

// TestStoreCosts: st exceeds ld everywhere (write-allocate RFO + drain), and
// the st penalty is relatively larger for the remote-NUMA path than for true
// CXL (§4.1).
func TestStoreCosts(t *testing.T) {
	s := NewSystem(MicrobenchConfig())
	for _, p := range s.Paths() {
		if p.SerialLatency(mem.Store) <= p.SerialLatency(mem.Load) {
			t.Errorf("%s: st should exceed ld", p.Name)
		}
	}
	// st to DDR5-R ≈ 2.2–2.4× ld from DDR5-L (§4.1 quotes 2.3×).
	r := s.Path("DDR5-R").SerialLatency(mem.Store).Nanoseconds()
	l := s.DDRLocal.SerialLatency(mem.Load).Nanoseconds()
	if rr := r / l; rr < 2.0 || rr > 2.6 {
		t.Errorf("st(DDR5-R)/ld(DDR5-L) = %.2f, want ~2.3", rr)
	}
	// Burst store penalty: remote coherence makes the parallel st penalty
	// grow more for DDR5-R than for CXL-A.
	rPen := s.Path("DDR5-R").ParallelLatency(mem.Store).Nanoseconds() /
		s.Path("DDR5-R").ParallelLatency(mem.Load).Nanoseconds()
	aPen := s.Path("CXL-A").ParallelLatency(mem.Store).Nanoseconds() /
		s.Path("CXL-A").ParallelLatency(mem.Load).Nanoseconds()
	if rPen <= aPen {
		t.Errorf("relative st penalty: DDR5-R %.2f should exceed CXL-A %.2f", rPen, aPen)
	}
}

// TestNTStoreAdvantage: nt-st is cheaper than st everywhere, and CXL-A's
// nt-st beats DDR5-R's by ~25 % (§4.1).
func TestNTStoreAdvantage(t *testing.T) {
	s := NewSystem(MicrobenchConfig())
	for _, p := range s.Paths() {
		if p.ParallelLatency(mem.NTStore) >= p.ParallelLatency(mem.Store) {
			t.Errorf("%s: nt-st should beat st", p.Name)
		}
	}
	a := s.Path("CXL-A").ParallelLatency(mem.NTStore).Nanoseconds()
	r := s.Path("DDR5-R").ParallelLatency(mem.NTStore).Nanoseconds()
	red := 1 - a/r
	if red < 0.15 || red > 0.35 {
		t.Errorf("nt-st CXL-A vs DDR5-R reduction = %.2f, want ~0.25", red)
	}
}

func TestCoherenceCongestionAblation(t *testing.T) {
	withCong := NewSystem(MicrobenchConfig())
	cfg := MicrobenchConfig()
	cfg.CoherenceCongestion = false
	without := NewSystem(cfg)
	a := withCong.Path("DDR5-R").ParallelLatency(mem.Load)
	b := without.Path("DDR5-R").ParallelLatency(mem.Load)
	if b >= a {
		t.Errorf("disabling congestion should reduce DDR5-R parallel latency: %v vs %v", b, a)
	}
	// CXL paths are unaffected.
	if withCong.Path("CXL-A").ParallelLatency(mem.Load) != without.Path("CXL-A").ParallelLatency(mem.Load) {
		t.Error("congestion ablation should not affect CXL paths")
	}
}

func TestLoadedParallelLatency(t *testing.T) {
	s := NewSystem(DefaultConfig())
	p := s.Path("CXL-A")
	base := p.ParallelLatency(mem.Load)
	if got := p.LoadedParallelLatency(mem.Load, 1); got != base {
		t.Errorf("factor 1 should return base latency")
	}
	if got := p.LoadedParallelLatency(mem.Load, 2); got != 2*base {
		t.Errorf("factor 2 = %v, want %v", got, 2*base)
	}
	if got := p.LoadedParallelLatency(mem.Load, 0.5); got != base {
		t.Errorf("factor < 1 should clamp to base")
	}
}

func TestHitLatencyLevels(t *testing.T) {
	s := NewSystem(DefaultConfig())
	p := s.Path("CXL-A")
	if p.HitLatency(cache.L1) != L1HitLatency ||
		p.HitLatency(cache.L2) != L2HitLatency ||
		p.HitLatency(cache.LLC) != LLCHitLatency {
		t.Error("cache hit latencies wrong")
	}
	if p.HitLatency(cache.Memory) != p.SerialLatency(mem.Load) {
		t.Error("memory-level latency should defer to the path")
	}
	// LLC hit beats every device's memory latency — the slack that lets CXL
	// win in Fig. 5's experiment.
	for _, pp := range s.Paths() {
		if LLCHitLatency >= pp.SerialLatency(mem.Load) {
			t.Errorf("%s: LLC hit (%v) should beat memory (%v)", pp.Name, LLCHitLatency, pp.SerialLatency(mem.Load))
		}
	}
}

func TestHomeFor(t *testing.T) {
	s := NewSystem(DefaultConfig())
	if h := s.HomeFor(s.DDRLocal, 2); h.Kind != cache.HomeLocalDDR || h.Node != 2 {
		t.Errorf("local home = %+v", h)
	}
	if h := s.HomeFor(s.Path("CXL-A"), 1); h.Kind != cache.HomeRemote || h.Node != 1 {
		t.Errorf("CXL home = %+v", h)
	}
	if h := s.HomeFor(s.Path("DDR5-R"), 0); h.Kind != cache.HomeRemote {
		t.Errorf("remote NUMA home = %+v", h)
	}
}

func TestDefaultConfigMatchesPaperSetup(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.SNCNodes != 4 || cfg.LocalDDRChannels != 2 {
		t.Errorf("default config should be SNC mode with 2 DDR channels: %+v", cfg)
	}
	s := NewSystem(cfg)
	// §5: local DDR provides ~3.4× the ld bandwidth of CXL-A and ~2× its
	// st bandwidth in this setup.
	ddrLd := s.DDRLocal.Device.PeakGBs() * s.DDRLocal.Device.EffInstr(mem.Load)
	cxlLd := s.Path("CXL-A").Device.PeakGBs() * s.Path("CXL-A").Device.EffInstr(mem.Load)
	if r := ddrLd / cxlLd; math.Abs(r-3.4) > 0.5 {
		t.Errorf("DDR/CXL ld bandwidth ratio = %.2f, want ~3.4", r)
	}
	ddrSt := s.DDRLocal.Device.PeakGBs() * s.DDRLocal.Device.EffInstr(mem.Store)
	cxlSt := s.Path("CXL-A").Device.PeakGBs() * s.Path("CXL-A").Device.EffInstr(mem.Store)
	if r := ddrSt / cxlSt; math.Abs(r-2.0) > 0.5 {
		t.Errorf("DDR/CXL st bandwidth ratio = %.2f, want ~2", r)
	}
}
