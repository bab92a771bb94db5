package cache

import (
	"testing"
	"testing/quick"

	"cxlmem/internal/sim"
)

func TestNewCacheGeometry(t *testing.T) {
	c := NewCache(48<<10, 12) // 48 KB, 12-way: 64 sets
	if c.Lines() != 768 {
		t.Errorf("lines = %d, want 768", c.Lines())
	}
	if c.SizeBytes() != 48<<10 {
		t.Errorf("size = %d", c.SizeBytes())
	}
}

func TestNewCachePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero ways": func() { NewCache(1024, 0) },
		"too small": func() { NewCache(64, 12) },
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

func TestLookupInsertBasics(t *testing.T) {
	c := NewCache(4096, 4)
	home := Home{Kind: HomeLocalDDR}
	if c.Lookup(0x1000, false) {
		t.Fatal("empty cache should miss")
	}
	c.Insert(0x1000, home, false)
	if !c.Lookup(0x1000, false) {
		t.Fatal("inserted line should hit")
	}
	// Same line, different byte offset.
	if !c.Lookup(0x1000+63, false) {
		t.Fatal("same-line offset should hit")
	}
	if c.Lookup(0x1000+64, false) {
		t.Fatal("next line should miss")
	}
	if c.Hits != 2 || c.Misses != 2 {
		t.Errorf("hits=%d misses=%d, want 2/2", c.Hits, c.Misses)
	}
}

func TestLRUEviction(t *testing.T) {
	c := NewCache(LineBytes*4, 4) // single set, 4 ways
	home := Home{}
	addrs := []uint64{0, 64, 128, 192}
	for _, a := range addrs {
		c.Insert(a, home, false)
	}
	c.Lookup(0, false) // make addr 0 most recently used
	v, evicted := c.Insert(256, home, false)
	if !evicted {
		t.Fatal("full set insert should evict")
	}
	if v.Addr != 64 {
		t.Errorf("evicted %#x, want LRU line 0x40", v.Addr)
	}
	if !c.Lookup(0, false) {
		t.Error("MRU line should survive")
	}
}

func TestDirtyPropagation(t *testing.T) {
	c := NewCache(LineBytes*2, 2)
	c.Insert(0, Home{}, false)
	c.Lookup(0, true) // write hit marks dirty
	c.Insert(64, Home{}, false)
	v, evicted := c.Insert(128, Home{}, false)
	if !evicted || v.Addr != 0 || !v.Dirty {
		t.Errorf("expected dirty eviction of line 0, got %+v (evicted=%v)", v, evicted)
	}
}

func TestInvalidate(t *testing.T) {
	c := NewCache(4096, 4)
	c.Insert(0x40, Home{}, true)
	found, dirty := c.Invalidate(0x40)
	if !found || !dirty {
		t.Errorf("Invalidate = (%v, %v), want (true, true)", found, dirty)
	}
	if c.Lookup(0x40, false) {
		t.Error("invalidated line should miss")
	}
	found, _ = c.Invalidate(0x80)
	if found {
		t.Error("absent line should not be found")
	}
}

func TestFlushAndOccupancy(t *testing.T) {
	c := NewCache(4096, 4)
	for i := uint64(0); i < 32; i++ {
		c.Insert(i*64, Home{}, false)
	}
	if c.Occupancy() != 32 {
		t.Errorf("occupancy = %d, want 32", c.Occupancy())
	}
	c.Flush()
	if c.Occupancy() != 0 {
		t.Errorf("occupancy after flush = %d", c.Occupancy())
	}
}

func TestOccupancyNeverExceedsCapacityProperty(t *testing.T) {
	f := func(seed uint32, nRaw uint16) bool {
		r := sim.NewRng(uint64(seed))
		c := NewCache(8192, 8)
		n := int(nRaw%2000) + 1
		for i := 0; i < n; i++ {
			c.Insert(uint64(r.Intn(1<<20))*64, Home{}, r.Float64() < 0.5)
		}
		return c.Occupancy() <= c.Lines()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNoDuplicateLinesProperty(t *testing.T) {
	// Inserting the same address twice must not create duplicates: after
	// inserting k distinct addresses (all mapping into capacity), occupancy
	// equals k.
	c := NewCache(64*1024, 16)
	for rep := 0; rep < 3; rep++ {
		for i := uint64(0); i < 100; i++ {
			c.Insert(i*64, Home{}, false)
		}
	}
	if c.Occupancy() != 100 {
		t.Errorf("occupancy = %d, want 100 (duplicates created?)", c.Occupancy())
	}
}

func TestSPRHierConfig(t *testing.T) {
	cfg := SPRHierConfig(4)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Cores != 32 || cfg.SNCNodes != 4 {
		t.Errorf("unexpected geometry: %+v", cfg)
	}
	totalLLC := int64(cfg.Cores) * cfg.LLCSliceBytes
	if totalLLC != 60<<20 {
		t.Errorf("total LLC = %d, want 60 MiB", totalLLC)
	}
}

func TestHierConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name      string
		cores, sn int
		ok        bool
	}{
		{"SNC does not divide", 32, 5, false},
		{"zero cores", 0, 1, false},
		{"non-pow2 slices", 24, 1, false},
		{"non-pow2 slices per node", 48, 2, false},
		{"SNC past the packed home limit", 32, 2 * (MaxHomeNode + 1), false},
		{"SNC at the packed home limit", 32, MaxHomeNode + 1, true},
		{"single core", 1, 1, true},
	} {
		cfg := SPRHierConfig(tc.sn)
		cfg.Cores = tc.cores
		if err := cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s (%d cores, %d SNC nodes): Validate() = %v, want ok=%t", tc.name, tc.cores, tc.sn, err, tc.ok)
		}
	}
}

func TestHierarchyBasicFlow(t *testing.T) {
	h := NewHierarchy(SPRHierConfig(1))
	home := Home{Kind: HomeLocalDDR, Node: 0}
	// Cold access: memory. Second access: L1.
	if lvl := h.Access(0, 0x10000, home, false); lvl != Memory {
		t.Errorf("cold access level = %v, want memory", lvl)
	}
	if lvl := h.Access(0, 0x10000, home, false); lvl != L1 {
		t.Errorf("warm access level = %v, want L1", lvl)
	}
}

func TestHierarchyL2AndLLCHit(t *testing.T) {
	cfg := SPRHierConfig(1)
	h := NewHierarchy(cfg)
	home := Home{Kind: HomeLocalDDR, Node: 0}

	// Touch enough distinct lines to overflow L1 (48 KB = 768 lines) but fit
	// in L2 (2 MB): the first line should then hit in L2.
	for i := uint64(0); i < 4096; i++ {
		h.Access(0, i*64, home, false)
	}
	if lvl := h.Access(0, 0, home, false); lvl != L2 {
		t.Errorf("level = %v, want L2", lvl)
	}

	// Touch enough to overflow L2 (32768 lines): early lines spill into the
	// LLC and should hit there.
	for i := uint64(0); i < 100000; i++ {
		h.Access(1, i*64, home, false)
	}
	if lvl := h.Access(1, 64, home, false); lvl != LLC {
		t.Errorf("level = %v, want LLC", lvl)
	}
}

func TestEffectiveLLCBytes(t *testing.T) {
	h4 := NewHierarchy(SPRHierConfig(4))
	local := Home{Kind: HomeLocalDDR, Node: 0}
	remote := Home{Kind: HomeRemote, Node: 0}
	if got := h4.EffectiveLLCBytes(local); got != 15<<20 {
		t.Errorf("SNC local effective LLC = %d, want 15 MiB", got)
	}
	if got := h4.EffectiveLLCBytes(remote); got != 60<<20 {
		t.Errorf("SNC remote effective LLC = %d, want 60 MiB", got)
	}
	h1 := NewHierarchy(SPRHierConfig(1))
	if got := h1.EffectiveLLCBytes(local); got != 60<<20 {
		t.Errorf("non-SNC effective LLC = %d, want 60 MiB", got)
	}
	// Ablation: no isolation break.
	cfg := SPRHierConfig(4)
	cfg.CXLBreaksIsolation = false
	ha := NewHierarchy(cfg)
	if got := ha.EffectiveLLCBytes(remote); got != 15<<20 {
		t.Errorf("ablation effective LLC = %d, want 15 MiB", got)
	}
}

// TestSNCSliceRouting verifies Fig. 5's mechanism directly: victims of
// local-DDR lines stay in the node's slices; victims of CXL lines spread
// over all slices.
func TestSNCSliceRouting(t *testing.T) {
	cfg := SPRHierConfig(4)
	h := NewHierarchy(cfg)
	core := 0 // node 0 = slices 0..7

	// Stream far more local-DDR lines than L2 capacity so victims spill.
	local := Home{Kind: HomeLocalDDR, Node: 0}
	for i := uint64(0); i < 200000; i++ {
		h.Access(core, i*64, local, false)
	}
	occ := h.SliceOccupancy()
	for s := 8; s < 32; s++ {
		if occ[s] != 0 {
			t.Fatalf("local-DDR victim leaked into slice %d (occupancy %d)", s, occ[s])
		}
	}
	inNode := 0
	for s := 0; s < 8; s++ {
		inNode += occ[s]
	}
	if inNode == 0 {
		t.Fatal("no local-DDR victims reached node-0 slices")
	}

	// Now stream CXL-homed lines from the same core: all slices get victims.
	h2 := NewHierarchy(cfg)
	cxl := Home{Kind: HomeRemote, Node: 0}
	for i := uint64(0); i < 200000; i++ {
		h2.Access(core, 1<<40|i*64, cxl, false)
	}
	occ2 := h2.SliceOccupancy()
	for s := 0; s < 32; s++ {
		if occ2[s] == 0 {
			t.Fatalf("CXL victims missing from slice %d", s)
		}
	}
}

// TestSNCIsolationAblation verifies the CXLBreaksIsolation=false ablation
// confines CXL victims to the accessor's node.
func TestSNCIsolationAblation(t *testing.T) {
	cfg := SPRHierConfig(4)
	cfg.CXLBreaksIsolation = false
	h := NewHierarchy(cfg)
	cxl := Home{Kind: HomeRemote, Node: 0}
	for i := uint64(0); i < 200000; i++ {
		h.Access(0, i*64, cxl, false)
	}
	occ := h.SliceOccupancy()
	for s := 8; s < 32; s++ {
		if occ[s] != 0 {
			t.Fatalf("ablation leaked CXL victim into slice %d", s)
		}
	}
}

// TestFig5EffectiveCapacity reproduces the §4.3 experiment's mechanism: a
// 32 MB buffer fits in the socket-wide LLC (60 MB) when homed on CXL but not
// in one node's slices (15 MB) when homed on local DDR.
func TestFig5EffectiveCapacity(t *testing.T) {
	const bufBytes = 32 << 20
	lines := uint64(bufBytes / 64)
	run := func(home Home) float64 {
		h := NewHierarchy(SPRHierConfig(4))
		r := sim.NewRng(99)
		// Warm up, then measure.
		for i := 0; i < 3_000_000; i++ {
			h.Access(0, uint64(r.Intn(int(lines)))*64, home, false)
		}
		hits, misses := uint64(0), uint64(0)
		for i := 0; i < 1_000_000; i++ {
			lvl := h.Access(0, uint64(r.Intn(int(lines)))*64, home, false)
			if lvl == Memory {
				misses++
			} else {
				hits++
			}
		}
		return float64(misses) / float64(hits+misses)
	}
	missCXL := run(Home{Kind: HomeRemote, Node: 0})
	missDDR := run(Home{Kind: HomeLocalDDR, Node: 0})
	if missCXL > 0.15 {
		t.Errorf("CXL-homed 32MB buffer miss rate = %.2f, want < 0.15 (fits in 60MB LLC)", missCXL)
	}
	if missDDR < 0.35 {
		t.Errorf("DDR-homed 32MB buffer miss rate = %.2f, want > 0.35 (exceeds 15MB slices)", missDDR)
	}
}

// TestCheAgainstSimulation cross-checks the working-set model — Che's
// approximation in its uniform case, capacity/n — against the real LRU
// cache simulator under uniform-random accesses, at capacities from a tenth
// of the working set to more than all of it. The model takes the
// simulated cache's own line count, which rounds the set count to a power
// of two.
func TestCheAgainstSimulation(t *testing.T) {
	const n = 20000
	for _, capacity := range []int{2048, 8192, 16384, 32768} {
		c := NewCache(int64(capacity*LineBytes), 16)
		approx := UniformLRUHitRate(n, c.Lines())
		r := sim.NewRng(7)
		// Warm.
		for i := 0; i < 200000; i++ {
			a := uint64(r.Intn(n)) * LineBytes
			if !c.Lookup(a, false) {
				c.Insert(a, Home{}, false)
			}
		}
		hits, total := 0, 0
		for i := 0; i < 500000; i++ {
			a := uint64(r.Intn(n)) * LineBytes
			total++
			if c.Lookup(a, false) {
				hits++
			} else {
				c.Insert(a, Home{}, false)
			}
		}
		simRate := float64(hits) / float64(total)
		if diff := simRate - approx; diff < -0.01 || diff > 0.01 {
			t.Errorf("capacity %d: model %v vs simulated %v differ by %v", capacity, approx, simRate, diff)
		}
	}
}

func TestUniformLRUHitRate(t *testing.T) {
	if got := UniformLRUHitRate(100, 50); got != 0.5 {
		t.Errorf("uniform hit rate = %v, want 0.5", got)
	}
	if got := UniformLRUHitRate(10, 100); got != 1 {
		t.Errorf("overprovisioned uniform = %v, want 1", got)
	}
	if got := UniformLRUHitRate(0, 10); got != 0 {
		t.Errorf("empty set = %v, want 0", got)
	}
}

func TestWorkingSetHitRate(t *testing.T) {
	// Working set fits: 1.
	if got := WorkingSetHitRate(1<<20, 60<<20); got != 1 {
		t.Errorf("fitting working set hit rate = %v", got)
	}
	// Working set 4x capacity: 0.25.
	if got := WorkingSetHitRate(4<<20, 1<<20); got != 0.25 {
		t.Errorf("uniform 4x = %v, want 0.25", got)
	}
	// Non-positive working set: trivially cached.
	if got := WorkingSetHitRate(0, 1<<20); got != 1 {
		t.Errorf("empty working set = %v, want 1", got)
	}
}

func TestAccessPanicsOnBadCore(t *testing.T) {
	h := NewHierarchy(SPRHierConfig(1))
	defer func() {
		if recover() == nil {
			t.Error("out-of-range core should panic")
		}
	}()
	h.Access(99, 0, Home{}, false)
}

func TestNodeOf(t *testing.T) {
	h := NewHierarchy(SPRHierConfig(4))
	if h.NodeOf(0) != 0 || h.NodeOf(7) != 0 || h.NodeOf(8) != 1 || h.NodeOf(31) != 3 {
		t.Error("NodeOf mapping wrong")
	}
}

func TestLevelStrings(t *testing.T) {
	if L1.String() != "L1" || L2.String() != "L2" || LLC.String() != "LLC" || Memory.String() != "memory" {
		t.Error("level strings wrong")
	}
}
