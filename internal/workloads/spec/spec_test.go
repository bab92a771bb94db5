package spec

import (
	"testing"

	"cxlmem/internal/mem"
	"cxlmem/internal/topo"
)

func mix16(p Profile) []Member { return []Member{{Profile: p, Instances: 16}} }

func TestProfilesLookup(t *testing.T) {
	if len(Profiles()) != 4 {
		t.Fatal("expected 4 profiles")
	}
	if _, err := MixByName("mcf", 16); err != nil {
		t.Error(err)
	}
	if _, err := MixByName("perlbench", 16); err == nil {
		t.Error("low-MPKI benchmark should be unknown")
	}
}

func TestHitRateMonotone(t *testing.T) {
	for _, p := range Profiles() {
		prev := -1.0
		for _, c := range []int64{0, 15 << 20, 60 << 20, 1 << 30, 1 << 40} {
			h := p.hitRate(c)
			if h < prev || h < 0 || h > 1 {
				t.Errorf("%s: hit rate not monotone/bounded at %d: %v", p.Name, c, h)
			}
			prev = h
		}
	}
}

// TestF4NaiveFiftyFiftyHarmful: the OS default 50 % interleave loses to
// DDR-only for every benchmark (paper finding F4) ...
func TestF4NaiveFiftyFiftyHarmful(t *testing.T) {
	sys := topo.NewSystem(topo.DefaultConfig())
	for _, p := range Profiles() {
		g0 := Run(sys, mix16(p), "CXL-A", 0).GIPS
		g50 := Run(sys, mix16(p), "CXL-A", 50).GIPS
		if g50 >= g0 {
			t.Errorf("%s: 50:50 (%.2f) should lose to DDR-only (%.2f)", p.Name, g50, g0)
		}
	}
}

// TestInteriorOptimum: ... while a tuned interior ratio beats both static
// policies (the Fig. 13 structure).
func TestInteriorOptimum(t *testing.T) {
	sys := topo.NewSystem(topo.DefaultConfig())
	for _, p := range Profiles() {
		g0 := Run(sys, mix16(p), "CXL-A", 0).GIPS
		g50 := Run(sys, mix16(p), "CXL-A", 50).GIPS
		best, gBest := bestRatio(sys, mix16(p), "CXL-A", 2)
		bestStatic := g0
		if g50 > bestStatic {
			bestStatic = g50
		}
		if gBest < bestStatic {
			t.Errorf("%s: tuned ratio should beat static policies", p.Name)
		}
		if best <= 0 || best >= 50 {
			t.Errorf("%s: optimal ratio %v%% should be interior (0, 50)", p.Name, best)
		}
	}
}

// bestRatio scans CXL percentages 0..100 in steps and returns the
// throughput-maximizing one with its throughput.
func bestRatio(sys *topo.System, members []Member, cxlName string, step float64) (best, gips float64) {
	for r := 0.0; r <= 100; r += step {
		if res := Run(sys, members, cxlName, r); res.GIPS > gips {
			best, gips = r, res.GIPS
		}
	}
	return best, gips
}

func TestMixesGainFromTuning(t *testing.T) {
	sys := topo.NewSystem(topo.DefaultConfig())
	mixes := [][]Member{
		{{Profile: Roms, Instances: 8}, {Profile: Mcf, Instances: 8}},
		{{Profile: Roms, Instances: 8}, {Profile: CactuBSSN, Instances: 8}},
	}
	for _, m := range mixes {
		g0 := Run(sys, m, "CXL-A", 0).GIPS
		best, gBest := bestRatio(sys, m, "CXL-A", 2)
		if gBest <= g0 {
			t.Errorf("mix %s+%s: tuning should beat DDR-only", m[0].Profile.Name, m[1].Profile.Name)
		}
		if best == 0 {
			t.Errorf("mix optimum at 0%% CXL")
		}
	}
}

func TestSampleTracksRatio(t *testing.T) {
	sys := topo.NewSystem(topo.DefaultConfig())
	r := Run(sys, mix16(Fotonik3d), "CXL-A", 30)
	if r.Sample.CXLPercent != 30 {
		t.Errorf("sample ratio = %v", r.Sample.CXLPercent)
	}
	if r.Sample.IPC <= 0 || r.Sample.L1MissLatencyNS <= 0 || r.Sample.SystemBandwidthGBs <= 0 {
		t.Errorf("sample fields empty: %+v", r.Sample)
	}
	// IPC must be below 1/BaseCPI (memory stalls only slow things down).
	if r.Sample.IPC >= 1/Fotonik3d.BaseCPI {
		t.Errorf("IPC %v exceeds the no-stall bound", r.Sample.IPC)
	}
}

func TestSaturationBehaviour(t *testing.T) {
	sys := topo.NewSystem(topo.DefaultConfig())
	// DDR-only fotonik3d runs the DDR device hot: its loaded DDR read
	// latency should be well above idle.
	r := Run(sys, mix16(Fotonik3d), "CXL-A", 0)
	idle := sys.DDRLocal.SerialLatency(mem.Load).Nanoseconds()
	if r.Sample.DDRReadLatencyNS < idle*1.5 {
		t.Errorf("DDR loaded latency %.0f should be ≥1.5× idle %.0f", r.Sample.DDRReadLatencyNS, idle)
	}
}

func TestRunPanics(t *testing.T) {
	sys := topo.NewSystem(topo.DefaultConfig())
	for name, fn := range map[string]func(){
		"empty mix": func() { Run(sys, nil, "CXL-A", 0) },
		"bad ratio": func() { Run(sys, mix16(Mcf), "CXL-A", 101) },
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

func TestPerMemberBreakdown(t *testing.T) {
	sys := topo.NewSystem(topo.DefaultConfig())
	m := []Member{{Profile: Roms, Instances: 8}, {Profile: Mcf, Instances: 8}}
	r := Run(sys, m, "CXL-A", 25)
	if len(r.PerMember) != 2 {
		t.Fatalf("per-member entries = %d", len(r.PerMember))
	}
	sum := r.PerMember[0] + r.PerMember[1]
	if diff := sum - r.GIPS; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("member GIPS sum %v != total %v", sum, r.GIPS)
	}
}
