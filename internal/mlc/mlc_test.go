package mlc

import (
	"math"
	"testing"

	"cxlmem/internal/mem"
	"cxlmem/internal/topo"
)

func TestIdleLatencyApproachesSerialPath(t *testing.T) {
	for _, name := range []string{"DDR5-L", "DDR5-R", "CXL-A", "CXL-B", "CXL-C"} {
		// Fresh system per device: a shared hierarchy would replay the same
		// pseudo-random address sequence into warm caches.
		sys := topo.NewSystem(topo.MicrobenchConfig())
		p := sys.Path(name)
		got := IdleLatency(sys, p, 20000, 1).Nanoseconds()
		want := p.SerialLatency(mem.Load).Nanoseconds()
		// A large random buffer still hits caches occasionally; the
		// average should be within 15% of the pure memory latency and
		// never exceed it.
		if got > want || got < 0.85*want {
			t.Errorf("%s: idle latency %.1f ns vs serial %.1f ns", p.Name, got, want)
		}
	}
}

func TestIdleLatencyOrderingMatchesFig3(t *testing.T) {
	measure := func(name string) float64 {
		sys := topo.NewSystem(topo.MicrobenchConfig())
		return IdleLatency(sys, sys.Path(name), 10000, 2).Nanoseconds()
	}
	l := measure("DDR5-L")
	r := measure("DDR5-R")
	a := measure("CXL-A")
	b := measure("CXL-B")
	c := measure("CXL-C")
	if !(l < r && r < a && a < b && b < c) {
		t.Errorf("MLC ordering broken: L=%v R=%v A=%v B=%v C=%v", l, r, a, b, c)
	}
}

// TestFig5BufferLatency reproduces §4.3's headline numbers: in SNC mode a
// 32 MB random buffer averages ~41 ns from CXL-A (fits the 60 MB socket LLC)
// vs ~76.8 ns from local DDR (overflows the 15 MB node slices).
func TestFig5BufferLatency(t *testing.T) {
	cfg := topo.DefaultConfig() // SNC on
	const buf = 32 << 20
	// Separate systems so the two runs don't share cache state.
	sysD := topo.NewSystem(cfg)
	ddr := BufferLatency(sysD, sysD.DDRLocal, buf, 200000, 3)
	sysC := topo.NewSystem(cfg)
	cxl := BufferLatency(sysC, sysC.Path("CXL-A"), buf, 200000, 3)

	if cxl.Nanoseconds() >= ddr.Nanoseconds() {
		t.Fatalf("CXL-A buffer latency %.1f should beat DDR5-L %.1f (O6)", cxl.Nanoseconds(), ddr.Nanoseconds())
	}
	if got := cxl.Nanoseconds(); got < 30 || got > 55 {
		t.Errorf("CXL-A 32MB buffer latency = %.1f ns, paper ~41", got)
	}
	if got := ddr.Nanoseconds(); got < 62 || got > 92 {
		t.Errorf("DDR5-L 32MB buffer latency = %.1f ns, paper ~76.8", got)
	}
}

// TestIdleLatencyIsDependentChase pins the pointer-chase semantics: with a
// chase buffer twice the LLC and fewer steps than buffer lines, every access
// is a compulsory miss, so the idle latency equals the serial path latency
// exactly — an independent-random loop would hit warm lines and fall below.
func TestIdleLatencyIsDependentChase(t *testing.T) {
	sys := topo.NewSystem(topo.MicrobenchConfig())
	p := sys.Path("CXL-A")
	got := IdleLatency(sys, p, 20000, 1)
	if want := p.SerialLatency(mem.Load); got != want {
		t.Errorf("chase idle latency %v, want exactly serial %v", got, want)
	}
}

func TestLoadedBandwidthEfficiencyMatchesTable(t *testing.T) {
	sys := topo.NewSystem(topo.MicrobenchConfig())
	for _, p := range sys.ComparisonPaths() {
		for _, m := range mem.MixPoints() {
			got := LoadedBandwidth(p, m)
			want := p.Device.Ctrl.MixEff[m]
			if math.Abs(got.Efficiency-want) > 1e-6 {
				t.Errorf("%s %v: efficiency %v, want %v", p.Name, m, got.Efficiency, want)
			}
			if gbs := got.AchievedGBs; math.Abs(gbs-want*p.Device.PeakGBs()) > 1e-6 {
				t.Errorf("%s %v: achieved %v GB/s inconsistent", p.Name, m, gbs)
			}
		}
	}
}

func TestMixSweepCoversAllPoints(t *testing.T) {
	sys := topo.NewSystem(topo.MicrobenchConfig())
	sweep := MixSweep(sys.Path("CXL-A"))
	if len(sweep) != 4 {
		t.Fatalf("sweep has %d points", len(sweep))
	}
	// O4 shape: CXL-A's efficiency *rises* with writes; DDR5-R's falls.
	a := MixSweep(sys.Path("CXL-A"))
	r := MixSweep(sys.Path("DDR5-R"))
	if a[mem.RW21].Efficiency <= a[mem.AllRead].Efficiency {
		t.Error("CXL-A efficiency should rise from all-read to 2:1")
	}
	if r[mem.RW21].Efficiency >= r[mem.AllRead].Efficiency {
		t.Error("DDR5-R efficiency should fall from all-read to 2:1")
	}
}

func TestPanics(t *testing.T) {
	sys := topo.NewSystem(topo.MicrobenchConfig())
	for name, fn := range map[string]func(){
		"idle steps":  func() { IdleLatency(sys, sys.DDRLocal, 0, 1) },
		"buf samples": func() { BufferLatency(sys, sys.DDRLocal, 1<<20, 0, 1) },
		"buf size":    func() { BufferLatency(sys, sys.DDRLocal, 1, 10, 1) },
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
