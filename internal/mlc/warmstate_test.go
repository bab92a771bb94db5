package mlc

import (
	"context"
	"testing"
	"time"

	"cxlmem/internal/topo"
)

// coldBuffer measures one operating point with warm-state caching disabled —
// the reference cold path — restoring the previous cache configuration
// afterwards.
func coldBuffer(cfg topo.Spec, device string, bufBytes int64, samples int, seed uint64) float64 {
	ConfigureWarmStates(-1)
	defer ConfigureWarmStates(DefaultWarmStateEntries)
	sys := topo.NewSystem(cfg)
	return BufferLatency(sys, sys.Path(device), bufBytes, samples, seed).Nanoseconds()
}

// warmPoint measures the same operating point through the warm-state cache
// on a fresh system.
func warmPoint(cfg topo.Spec, device string, bufBytes int64, samples int, seed uint64) float64 {
	sys := topo.NewSystem(cfg)
	return BufferLatency(sys, sys.Path(device), bufBytes, samples, seed).Nanoseconds()
}

// TestWarmStateByteIdentical pins the warm-state cache's core contract for
// every fig5/ablation-llc operating point: the first (miss, memoizing) run
// and the second (hit, snapshot-restoring) run both produce exactly the
// cold-path value.
func TestWarmStateByteIdentical(t *testing.T) {
	noBreak := topo.DefaultConfig()
	noBreak.CXLBreaksSNCIsolation = false
	points := []struct {
		name   string
		cfg    topo.Spec
		device string
		buf    int64
	}{
		// The fig5 rows; CXL-A at the experiments' real 32 MB buffer (it is
		// also ablation-llc's isolation-broken row — the shared key).
		{"fig5-ddr", topo.DefaultConfig(), "DDR5-L", 4 << 20},
		{"fig5-cxl-32mb", topo.DefaultConfig(), "CXL-A", 32 << 20},
		// ablation-llc's isolation-kept row.
		{"ablation-nobreak", noBreak, "CXL-A", 4 << 20},
	}
	const samples = 2000
	for i, p := range points {
		seed := uint64(9000 + i)
		cold := coldBuffer(p.cfg, p.device, p.buf, samples, seed)
		before := WarmStateStats()
		miss := warmPoint(p.cfg, p.device, p.buf, samples, seed)
		hit := warmPoint(p.cfg, p.device, p.buf, samples, seed)
		after := WarmStateStats()
		if miss != cold || hit != cold {
			t.Errorf("%s: cold %v, miss-run %v, hit-run %v — want all identical",
				p.name, cold, miss, hit)
		}
		if after.Hits-before.Hits < 1 {
			t.Errorf("%s: no warm-state hit recorded (hits %d -> %d)",
				p.name, before.Hits, after.Hits)
		}
	}
}

// TestWarmStateSharedKey pins the two warm-state shares between fig5 and
// ablation-llc. fig5's CXL-A point and ablation-llc's isolation-broken
// point build identically configured systems and measure CXL-A, so they
// memoize under one key. fig5's DDR5-L point and ablation-llc's
// isolation-kept CXL-A point route to the same node-0 slices of the same
// geometry, so they share a key too: whichever runs second restores the
// first one's warmup rehomed, in either order, and still measures exactly
// its cold value. DDR5-L and the isolation-broken CXL-A point route
// differently and must not share.
func TestWarmStateSharedKey(t *testing.T) {
	broken := topo.DefaultConfig()
	broken.CXLBreaksSNCIsolation = true // ablation-llc's explicit broken row
	kept := topo.DefaultConfig()
	kept.CXLBreaksSNCIsolation = false
	type point struct {
		name   string
		cfg    topo.Spec
		device string
	}
	fig5DDR := point{"fig5 DDR5-L", topo.DefaultConfig(), "DDR5-L"}
	fig5CXL := point{"fig5 CXL-A", topo.DefaultConfig(), "CXL-A"}
	ablBroken := point{"ablation-llc isolation broken", broken, "CXL-A"}
	ablKept := point{"ablation-llc isolation kept", kept, "CXL-A"}
	const buf, samples = 2 << 20, 1000
	key := func(p point, seed uint64) string {
		sys := topo.NewSystem(p.cfg)
		return warmKey(sys.Hier.Config(), sys.HomeFor(sys.Path(p.device), 0), buf/64, seed)
	}
	if key(fig5DDR, 1) == key(ablBroken, 1) {
		t.Errorf("%s and %s share a key", fig5DDR.name, ablBroken.name)
	}

	for i, pair := range [][2]point{{fig5CXL, ablBroken}, {fig5DDR, ablKept}, {ablKept, fig5DDR}} {
		seed := uint64(9100 + i) // a fresh key for every pair
		first, second := pair[0], pair[1]
		if k1, k2 := key(first, seed), key(second, seed); k1 != k2 {
			t.Errorf("%s and %s keys differ:\n%s\n%s", first.name, second.name, k1, k2)
			continue
		}
		coldFirst := coldBuffer(first.cfg, first.device, buf, samples, seed)
		coldSecond := coldBuffer(second.cfg, second.device, buf, samples, seed)
		before := WarmStateStats()
		a := warmPoint(first.cfg, first.device, buf, samples, seed)
		b := warmPoint(second.cfg, second.device, buf, samples, seed)
		after := WarmStateStats()
		if a != coldFirst || b != coldSecond {
			t.Errorf("%s then %s: measured %v and %v, want cold %v and %v",
				first.name, second.name, a, b, coldFirst, coldSecond)
		}
		if misses, hits := after.Misses-before.Misses, after.Hits-before.Hits; misses != 1 || hits != 1 {
			t.Errorf("%s then %s: %d warm-state misses and %d hits, want 1 and 1",
				first.name, second.name, misses, hits)
		}
	}
}

// TestWarmStateEvictionPressure runs five distinct operating points through
// a four-entry cache: entries must evict, and every re-measurement — hit or
// recompute — must still equal its cold reference.
func TestWarmStateEvictionPressure(t *testing.T) {
	ConfigureWarmStates(4)
	defer ConfigureWarmStates(DefaultWarmStateEntries)
	const buf, samples = 256 << 10, 500
	cold := make([]float64, 5)
	for i := range cold {
		cold[i] = coldBuffer(topo.DefaultConfig(), "DDR5-L", buf, samples, uint64(9200+i))
		// coldBuffer resets the budget to the default; re-pin the pressure.
		ConfigureWarmStates(4)
	}
	before := WarmStateStats()
	for round := 0; round < 2; round++ {
		for i := range cold {
			got := warmPoint(topo.DefaultConfig(), "DDR5-L", buf, samples, uint64(9200+i))
			if got != cold[i] {
				t.Errorf("round %d point %d: %v, want cold %v", round, i, got, cold[i])
			}
		}
	}
	after := WarmStateStats()
	if after.Size > 4 {
		t.Errorf("cache size %d exceeds the 4-entry budget", after.Size)
	}
	if after.Evictions == before.Evictions {
		t.Error("five keys through a four-entry cache evicted nothing")
	}
}

// TestWarmStateCanceledNeverCached pins cancellation hygiene: a warmup whose
// context dies mid-stream unwinds as a panic carrying the context error and
// leaves no cache entry, and the next (live) measurement of the same point
// still produces the cold value.
func TestWarmStateCanceledNeverCached(t *testing.T) {
	// 8 MB buffer: the warmup spans multiple address chunks, so the
	// between-chunk context check must fire before it can complete.
	const buf, samples, seed = 8 << 20, 1000, uint64(9300)
	cold := coldBuffer(topo.DefaultConfig(), "DDR5-L", buf, samples, seed)

	baseline := WarmStateStats().Size
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sys := topo.NewSystem(topo.DefaultConfig())
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Error("canceled warmup did not panic")
			} else if err, ok := r.(error); !ok || !canceled(err) {
				t.Errorf("canceled warmup panicked %v, want a context error", r)
			}
		}()
		BufferLatencyOpt(sys, sys.Path("DDR5-L"), buf, samples, seed, StreamOptions{Ctx: ctx})
	}()

	// The orphaned computation notices the cancellation at its next chunk
	// boundary and its entry is dropped, never retained.
	deadline := time.Now().Add(5 * time.Second)
	for WarmStateStats().InFlight > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if s := WarmStateStats(); s.InFlight > 0 {
		t.Fatalf("canceled warmup still in flight after 5s: %+v", s)
	}
	if s := WarmStateStats(); s.Size > baseline {
		t.Errorf("canceled warmup was retained: size %d > baseline %d", s.Size, baseline)
	}

	if got := warmPoint(topo.DefaultConfig(), "DDR5-L", buf, samples, seed); got != cold {
		t.Errorf("post-cancellation measurement %v, want cold %v", got, cold)
	}
}
