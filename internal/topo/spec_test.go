package topo

import (
	"reflect"
	"strings"
	"testing"

	"cxlmem/internal/cache"
	"cxlmem/internal/coherence"
	"cxlmem/internal/link"
	"cxlmem/internal/mem"
)

// handAssembledTable1 reproduces the pre-refactor NewSystem body verbatim:
// the hand-written Table-1 constructor that Build replaced. The pin test
// below proves the declarative path assembles the same machine
// field-for-field.
func handAssembledTable1(cfg Spec) (hier *cache.Hierarchy, paths []*Path) {
	hcfg := cache.SPRHierConfig(cfg.SNCNodes)
	hcfg.CXLBreaksIsolation = cfg.CXLBreaksSNCIsolation

	remoteCoh := coherence.RemoteDirectory()
	if !cfg.CoherenceCongestion {
		remoteCoh.BurstPenalty = coherence.CXLHomeStructure().BurstPenalty
	}

	paths = []*Path{
		{
			Name:   "DDR5-L",
			Device: mem.DDR5Local(cfg.LocalDDRChannels),
			Links:  []*link.Link{link.Mesh()},
			Coh:    coherence.LocalCHA(),
		},
		{
			Name:         "DDR5-R",
			Device:       mem.DDR5Remote(),
			Links:        []*link.Link{link.Mesh(), link.UPI(), link.Mesh()},
			Coh:          remoteCoh,
			IsRemoteNUMA: true,
		},
	}
	for _, d := range mem.AllCXLDevices() {
		paths = append(paths, &Path{
			Name:   d.Name,
			Device: d,
			Links:  []*link.Link{link.Mesh(), link.CXLx8()},
			Coh:    coherence.CXLHomeStructure(),
			IsCXL:  true,
		})
	}
	return cache.NewHierarchy(hcfg), paths
}

// TestBuilderReproducesTable1 pins that the default profile, built through
// the declarative Spec/Build path, is the hand-assembled Table-1 system
// field for field — for both the §5 application config and the §4
// microbenchmark config.
func TestBuilderReproducesTable1(t *testing.T) {
	noCongest := MicrobenchConfig()
	noCongest.CoherenceCongestion = false
	for name, cfg := range map[string]Spec{
		"default":    DefaultConfig(),
		"microbench": MicrobenchConfig(),
		"no-congest": noCongest,
	} {
		t.Run(name, func(t *testing.T) {
			got := NewSystem(cfg)
			wantHier, wantPaths := handAssembledTable1(cfg)
			if !reflect.DeepEqual(got.Hier, wantHier) {
				t.Error("hierarchy diverges from the hand-assembled one")
			}
			if len(got.Paths()) != len(wantPaths) {
				t.Fatalf("%d paths, want %d", len(got.Paths()), len(wantPaths))
			}
			for i, want := range wantPaths {
				if !reflect.DeepEqual(got.Paths()[i], want) {
					t.Errorf("path %d (%s) diverges field-for-field:\ngot  %+v\nwant %+v",
						i, want.Name, got.Paths()[i], want)
				}
			}
			if !got.Path("DDR5-R").IsRemoteNUMA {
				t.Error("DDR5-R should remain the emulated remote-NUMA path")
			}
			if got.DefaultFarDevice() != "CXL-A" {
				t.Errorf("default far device = %q, want CXL-A", got.DefaultFarDevice())
			}
		})
	}
}

// TestBuilderValidation rejects each class of invalid spec with a precise
// error naming the offending field.
func TestBuilderValidation(t *testing.T) {
	mutate := func(f func(*Spec)) Spec {
		sp := DefaultConfig()
		f(&sp)
		return sp
	}
	cases := []struct {
		name string
		spec Spec
		want string // substring of the error
	}{
		{"zero sockets", mutate(func(s *Spec) { s.Sockets = 0 }), "sockets"},
		{"three sockets", mutate(func(s *Spec) { s.Sockets = 3 }), "sockets"},
		{"snc does not divide", mutate(func(s *Spec) { s.SNCNodes = 3 }), "divide"},
		{"zero snc", mutate(func(s *Spec) { s.SNCNodes = 0 }), "divide"},
		{"snc beyond packed home limit", mutate(func(s *Spec) { s.SNCNodes = 16 }), "packed cache-line home limit"},
		{"negative cores", mutate(func(s *Spec) { s.Cores = -4 }), "cores"},
		{"non-pow2 cores", mutate(func(s *Spec) { s.Cores = 24 }), "power of two"},
		{"non-pow2 cores per node", mutate(func(s *Spec) { s.Cores, s.SNCNodes = 48, 2 }), "power of two"},
		{"zero channels", mutate(func(s *Spec) { s.LocalDDRChannels = 0 }), "channel"},
		{"no devices", mutate(func(s *Spec) { s.Devices, s.DefaultFarDevice = nil, "" }), "no far-memory devices"},
		{"unnamed device", mutate(func(s *Spec) { s.Devices[1].Name = "" }), "no name"},
		{"reserved name", mutate(func(s *Spec) { s.Devices[1].Name = "DDR5-L" }), "reserved"},
		{"duplicate device", mutate(func(s *Spec) { s.Devices[2].Name = s.Devices[1].Name }), "duplicate device"},
		{"emulated on one socket", mutate(func(s *Spec) { s.Sockets = 1 }), "second socket"},
		{"bad device channels", mutate(func(s *Spec) { s.Devices[1].Channels = 0 }), "channels"},
		{"bad device efficiency", mutate(func(s *Spec) { s.Devices[1].Ctrl.MixEff[0] = 1.5 }), "efficiency"},
		{"bad link bandwidth", mutate(func(s *Spec) { s.Devices[1].Link.BandwidthPerDir = 0 }), "bandwidth"},
		{"missing default device", mutate(func(s *Spec) { s.DefaultFarDevice = "CXL-Z" }), "default far device"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Build(c.spec); err == nil {
				t.Fatal("expected a validation error")
			} else if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestHomeNodeLimitAtBuildTime pins the satellite contract: a topology
// whose SNC node index would overflow the packed cache-line home field is
// rejected with a validated error at Build time instead of panicking deep
// inside cache.packWord on the first routed access. SNC-8 is the edge that
// still fits (node 7 == cache.MaxHomeNode) and must keep building.
func TestHomeNodeLimitAtBuildTime(t *testing.T) {
	sp := DefaultConfig()
	sp.SNCNodes = 16
	if _, err := Build(sp); err == nil {
		t.Fatal("SNC-16 spec must fail validation, not panic later in packWord")
	}
	sp.SNCNodes = cache.MaxHomeNode + 1
	s, err := Build(sp)
	if err != nil {
		t.Fatalf("SNC-%d should build (max node exactly at the packed limit): %v", sp.SNCNodes, err)
	}
	// Routing a line homed on the highest node must not panic.
	home := s.HomeFor(s.Path("CXL-A"), cache.MaxHomeNode)
	s.Hier.Access(s.Hier.Config().Cores-1, 0x1000, home, false)
}

// TestBuildPlatformsAllBuildable builds every registered platform and sanity
// checks the assembled systems: a local DDR pool, the declared devices in
// order, a resolvable default far device, and per-path serial latencies
// above the local baseline.
func TestBuildPlatformsAllBuildable(t *testing.T) {
	names := PlatformNames()
	if len(names) < 4 {
		t.Fatalf("expected >= 4 registered platforms, got %v", names)
	}
	if names[0] != DefaultPlatform {
		t.Errorf("default platform should lead the registry order, got %v", names)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			s, err := BuildPlatform(name)
			if err != nil {
				t.Fatal(err)
			}
			p, _ := PlatformByName(name)
			if len(s.Paths()) != len(p.Spec.Devices)+1 {
				t.Fatalf("%d paths for %d devices", len(s.Paths()), len(p.Spec.Devices))
			}
			if s.DDRLocal == nil || s.Paths()[0] != s.DDRLocal {
				t.Error("DDR5-L should lead the path order")
			}
			for i, d := range p.Spec.Devices {
				if got := s.Paths()[i+1].Name; got != d.Name {
					t.Errorf("path %d = %s, want %s", i+1, got, d.Name)
				}
			}
			far := s.Path(s.DefaultFarDevice())
			if far == s.DDRLocal {
				t.Error("default far device resolves to the local pool")
			}
			base := s.DDRLocal.SerialLatency(mem.Load)
			for _, pp := range s.ComparisonPaths() {
				if pp.SerialLatency(mem.Load) <= base {
					t.Errorf("%s serial load latency should exceed the local DDR baseline", pp.Name)
				}
			}
		})
	}
}

// TestPlatformRegistry covers the registry contract: lookups, unknown
// names, and the table rules registration used to check at run time —
// names unique and non-empty lowercase, the default first and the rest
// sorted, every spec valid.
func TestPlatformRegistry(t *testing.T) {
	if _, err := PlatformByName("table1"); err != nil {
		t.Fatal(err)
	}
	if _, err := PlatformByName("nope"); err == nil || !strings.Contains(err.Error(), "registered:") {
		t.Errorf("unknown platform error should list the registry, got %v", err)
	}
	if platforms[0].Name != DefaultPlatform {
		t.Errorf("first platform is %q, want the default %q", platforms[0].Name, DefaultPlatform)
	}
	for i, p := range platforms {
		if p.Name == "" || p.Name != strings.ToLower(p.Name) {
			t.Errorf("platform %d: name %q is not non-empty lowercase", i, p.Name)
		}
		if i > 1 && platforms[i-1].Name >= p.Name {
			t.Errorf("platform %d: %q does not sort after %q (names after the default must be sorted and unique)",
				i, p.Name, platforms[i-1].Name)
		}
		if i > 0 && p.Name == DefaultPlatform {
			t.Errorf("platform %d repeats the default name", i)
		}
		if err := p.Spec.Validate(); err != nil {
			t.Errorf("platform %q does not validate: %v", p.Name, err)
		}
	}
	if len(AllPlatforms()) != len(PlatformNames()) {
		t.Error("AllPlatforms and PlatformNames disagree")
	}
	catalog := PlatformCatalog()
	for _, name := range PlatformNames() {
		if !strings.Contains(catalog, "| `"+name+"` |") {
			t.Errorf("catalog missing platform %s", name)
		}
	}
}

// TestBuildPlatformFreshSystems pins that repeated builds share no mutable
// state: warming one system's caches must not leak into another.
func TestBuildPlatformFreshSystems(t *testing.T) {
	a, err := BuildPlatform("snc-off")
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildPlatform("snc-off")
	if err != nil {
		t.Fatal(err)
	}
	home := a.HomeFor(a.Path("CXL-A"), 0)
	for addr := uint64(0); addr < 1<<16; addr += 64 {
		a.Hier.Access(0, addr, home, false)
	}
	if got := b.Hier.LLCMisses; got != 0 {
		t.Errorf("second system saw %d LLC misses without running anything", got)
	}
}
