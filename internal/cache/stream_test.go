package cache

import (
	"fmt"
	"testing"

	"cxlmem/internal/sim"
)

// Shape-randomized reference check of the stream loop. Scalar Access is the
// reference: it walks L1, L2 and the routed slice through the Cache methods
// one access at a time, with no shared hash, no flat LLC view and no
// sharding. A seeded generator draws hierarchy shapes — power-of-two core
// counts 1..32, SNC 1/2/4/8, 1..16 ways and 1..64 sets per level, both
// isolation modes — and drives identical traffic through twins of each: one
// via Access, one via ReadStream, two via ReadStreamSharded (workers 1 and
// 3), and, from mid-stream on, one restored from a Capture. Every twin must
// match the reference's histogram and complete state after every chunk.

// streamShape is one generated hierarchy plus the seed of its traffic.
type streamShape struct {
	cfg     HierConfig
	traffic uint64
}

// randomCache draws one level's geometry: 1..64 sets (a power of two, so
// NewCache keeps it exactly) and 1..MaxWays ways.
func randomCache(rng *sim.Rng) (bytes int64, ways int) {
	sets := int64(1) << rng.Intn(7)
	ways = 1 + rng.Intn(MaxWays)
	return sets * int64(ways) * LineBytes, ways
}

// shapeFromSeed is the generator: every seed maps to one valid shape.
func shapeFromSeed(seed uint64) streamShape {
	rng := sim.NewRng(seed)
	logCores := rng.Intn(6) // 1..32 cores
	var cfg HierConfig
	cfg.Cores = 1 << logCores
	cfg.SNCNodes = 1 << rng.Intn(min(logCores, 3)+1) // 1/2/4/8, dividing Cores
	cfg.L1Bytes, cfg.L1Ways = randomCache(rng)
	cfg.L2Bytes, cfg.L2Ways = randomCache(rng)
	cfg.LLCSliceBytes, cfg.LLCWays = randomCache(rng)
	cfg.CXLBreaksIsolation = rng.Intn(2) == 0
	return streamShape{cfg: cfg, traffic: rng.Uint64()}
}

func (sh streamShape) String() string {
	c := sh.cfg
	iso := "iso"
	if c.CXLBreaksIsolation {
		iso = "break"
	}
	return fmt.Sprintf("c%d-snc%d-l1:%dw%dB-l2:%dw%dB-llc:%dw%dB-%s",
		c.Cores, c.SNCNodes, c.L1Ways, c.L1Bytes, c.L2Ways, c.L2Bytes, c.LLCWays, c.LLCSliceBytes, iso)
}

// randomHome draws either routing class on any node of the hierarchy.
func randomHome(rng *sim.Rng, cfg HierConfig) Home {
	return Home{Kind: HomeKind(rng.Intn(2)), Node: rng.Intn(cfg.SNCNodes)}
}

// checkStreamShape drives one shape's traffic through the twins and fails
// at the first divergence from the Access reference.
func checkStreamShape(t *testing.T, sh streamShape) {
	t.Helper()
	cfg := sh.cfg
	if err := cfg.Validate(); err != nil {
		t.Fatalf("generator produced an invalid shape %v: %v", sh, err)
	}
	rng := sim.NewRng(sh.traffic)
	ref := NewHierarchy(cfg)
	l1Lines, l2Lines := ref.PrivateLines(0)
	capacity := int64(l1Lines+l2Lines) + ref.EffectiveLLCLines(Home{Kind: HomeRemote})
	// From all-L1-resident to several times the whole hierarchy.
	span := 1 + rng.Int63n(4*capacity)
	addr := func() uint64 { return uint64(rng.Int63n(span)) * LineBytes }

	// One twin per stream path: workers 0 drives ReadStream, a positive
	// count ReadStreamSharded.
	type twin struct {
		name    string
		h       *Hierarchy
		workers int
	}
	twins := []twin{
		{"ReadStream", NewHierarchy(cfg), 0},
		{"ReadStreamSharded/1", NewHierarchy(cfg), 1},
		{"ReadStreamSharded/3", NewHierarchy(cfg), 3},
	}

	// Access-seeded prefix: random cores and homes, writes included.
	for i, n := 0, 500+rng.Intn(2000); i < n; i++ {
		core, a, home, write := rng.Intn(cfg.Cores), addr(), randomHome(rng, cfg), rng.Intn(3) == 0
		ref.Access(core, a, home, write)
		for _, tw := range twins {
			tw.h.Access(core, a, home, write)
		}
	}
	for _, tw := range twins {
		if d := hierDiff(ref, tw.h); d != "" {
			t.Fatalf("%v: %s after the Access prefix: %s", sh, tw.name, d)
		}
	}

	const chunks, captureAfter = 4, 1
	for chunk := 0; chunk < chunks; chunk++ {
		core, home := rng.Intn(cfg.Cores), randomHome(rng, cfg)
		addrs := make([]uint64, minShardedLen+rng.Intn(minShardedLen))
		for i := range addrs {
			addrs[i] = addr()
		}
		var want LevelCounts
		for _, a := range addrs {
			want[ref.Access(core, a, home, false)]++
		}
		for _, tw := range twins {
			var got LevelCounts
			if tw.workers == 0 {
				tw.h.ReadStream(core, addrs, home, &got)
			} else {
				tw.h.ReadStreamSharded(core, addrs, home, &got, tw.workers)
			}
			if got != want {
				t.Fatalf("%v: %s chunk %d: histogram %v, Access %v", sh, tw.name, chunk, got, want)
			}
			if d := hierDiff(ref, tw.h); d != "" {
				t.Fatalf("%v: %s chunk %d: %s", sh, tw.name, chunk, d)
			}
		}
		if chunk == captureAfter {
			restored := NewHierarchy(cfg)
			if !restored.Restore(twins[0].h.Capture()) {
				t.Fatalf("%v: restore of a same-config capture refused", sh)
			}
			if d := hierDiff(ref, restored); d != "" {
				t.Fatalf("%v: restored chunk %d: %s", sh, chunk, d)
			}
			twins = append(twins, twin{"restored", restored, 3})
		}
	}
}

// TestReadStreamMatchesAccess runs the generator's first shapes and checks
// that they reach every corner it promises, so a generator change cannot
// silently narrow the check.
func TestReadStreamMatchesAccess(t *testing.T) {
	seen := map[string]bool{}
	for seed := uint64(1); seed <= 64; seed++ {
		sh := shapeFromSeed(seed)
		c := sh.cfg
		seen[fmt.Sprintf("cores=%d", c.Cores)] = true
		seen[fmt.Sprintf("snc=%d", c.SNCNodes)] = true
		seen[fmt.Sprintf("isolation-broken=%t", c.CXLBreaksIsolation)] = true
		for _, lvl := range []struct {
			bytes int64
			ways  int
		}{
			{c.L1Bytes, c.L1Ways}, {c.L2Bytes, c.L2Ways}, {c.LLCSliceBytes, c.LLCWays},
		} {
			sets := lvl.bytes / LineBytes / int64(lvl.ways)
			seen[fmt.Sprintf("ways=%d", lvl.ways)] = true
			seen[fmt.Sprintf("sets=%d", sets)] = true
		}
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) { checkStreamShape(t, sh) })
	}
	var missing []string
	for _, want := range []string{
		"cores=1", "cores=2", "cores=4", "cores=8", "cores=16", "cores=32",
		"snc=1", "snc=2", "snc=4", "snc=8",
		"ways=1", "ways=16", "sets=1", "sets=64",
		"isolation-broken=true", "isolation-broken=false",
	} {
		if !seen[want] {
			missing = append(missing, want)
		}
	}
	if len(missing) > 0 {
		t.Errorf("generator never produced %v", missing)
	}
}

// FuzzStreamMatchesAccess lets the fuzzer pick generator seeds beyond the
// ones the test runs.
func FuzzStreamMatchesAccess(f *testing.F) {
	for seed := uint64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		checkStreamShape(t, shapeFromSeed(seed))
	})
}

// TestReadStreamPanicsOnBadCore matches Access's contract.
func TestReadStreamPanicsOnBadCore(t *testing.T) {
	h := NewHierarchy(SPRHierConfig(1))
	defer func() {
		if recover() == nil {
			t.Error("out-of-range core should panic")
		}
	}()
	var c LevelCounts
	h.ReadStream(99, []uint64{0}, Home{}, &c)
}

// TestFingerprintConsistency drives a randomized op mix through one Cache and
// verifies the fingerprint sidecar stays a faithful mirror of the words —
// every resident line must remain findable, every absent line a miss.
func TestFingerprintConsistency(t *testing.T) {
	c := NewCache(8<<10, 8)
	rng := sim.NewRng(3)
	resident := map[uint64]bool{}
	const span = 1 << 12 // lines; small enough to force heavy conflicts
	for i := 0; i < 200000; i++ {
		line := uint64(rng.Intn(span))
		addr := line * LineBytes
		switch rng.Intn(4) {
		case 0:
			if v, ev := c.Insert(addr, Home{}, rng.Intn(2) == 0); ev {
				delete(resident, v.Addr/LineBytes)
			}
			resident[line] = true
		case 1:
			got := c.Lookup(addr, false)
			if got != resident[line] {
				t.Fatalf("op %d: Lookup(%#x) = %v, want %v", i, addr, got, resident[line])
			}
		case 2:
			found, _ := c.Invalidate(addr)
			if found != resident[line] {
				t.Fatalf("op %d: Invalidate(%#x) = %v, want %v", i, addr, found, resident[line])
			}
			delete(resident, line)
		case 3:
			found, _ := c.ProbeRemove(addr)
			if found != resident[line] {
				t.Fatalf("op %d: ProbeRemove(%#x) = %v, want %v", i, addr, found, resident[line])
			}
			delete(resident, line)
		}
	}
	if c.Occupancy() != len(resident) {
		t.Fatalf("occupancy %d, want %d", c.Occupancy(), len(resident))
	}
}

// TestPackWordNodeLimit pins the loud failure mode for nodes beyond the
// packed range.
func TestPackWordNodeLimit(t *testing.T) {
	c := NewCache(4096, 4)
	defer func() {
		if recover() == nil {
			t.Error("node beyond MaxHomeNode should panic")
		}
	}()
	c.Insert(0, Home{Kind: HomeRemote, Node: MaxHomeNode + 1}, false)
}

// TestNewCacheWaysLimit pins the loud failure mode for associativities the
// fingerprint sidecar cannot cover.
func TestNewCacheWaysLimit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ways beyond MaxWays should panic")
		}
	}()
	NewCache(LineBytes*32, MaxWays+1)
}
