package cache

import (
	"fmt"
	"testing"

	"cxlmem/internal/sim"
)

// streamSeed replays identical mixed-home streamed traffic into a hierarchy.
func streamSeed(h *Hierarchy) {
	rng := sim.NewRng(11)
	addrs := make([]uint64, 20000)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1<<14)) * LineBytes
	}
	var c LevelCounts
	h.ReadStream(2, addrs[:10000], Home{Kind: HomeRemote, Node: 0}, &c)
	h.ReadStream(1, addrs[10000:], Home{Kind: HomeLocalDDR, Node: 1}, &c)
}

// Restore overwrites the hierarchy's simulated state with the snapshot's,
// leaving it byte-identical to the hierarchy Capture saw. It reports false —
// and changes nothing — when the hierarchy's configuration differs from the
// snapshot's. The arena carve is deterministic per configuration, so equal
// configurations always have identical layouts.
//
// Unlike RestoreRehomed it takes snapshots of mixed-home traffic, which
// only the tests capture: the round trip below and the stream loop's
// restored twin.
func (h *Hierarchy) Restore(s *Snapshot) bool {
	if h.cfg != s.cfg {
		return false
	}
	h.materializeAll()
	copy(h.arena, s.arena)
	h.restoreCounters(s)
	return true
}

// TestSnapshotRoundTrip pins the snapshot contract: restoring a capture into
// a fresh hierarchy — or back into one that has since diverged — leaves it
// byte-identical to the hierarchy at capture time.
func TestSnapshotRoundTrip(t *testing.T) {
	cfg := shrunkConfig(4)

	ref := NewHierarchy(cfg)
	if !ref.Pristine() {
		t.Fatal("new hierarchy not pristine")
	}
	streamSeed(ref)
	if ref.Pristine() {
		t.Fatal("seeded hierarchy still pristine")
	}
	snap := ref.Capture()

	// Restore into a pristine hierarchy.
	h := NewHierarchy(cfg)
	if !h.Restore(snap) {
		t.Fatal("restore into pristine hierarchy failed")
	}
	requireHierEqual(t, ref, h)

	// The restored hierarchy must evolve exactly like the original: snapshots
	// capture the complete state, including recency order.
	extra := sim.NewRng(23)
	for i := 0; i < 3000; i++ {
		addr := uint64(extra.Intn(1<<14)) * LineBytes
		ref.Access(1, addr, Home{Kind: HomeLocalDDR, Node: 0}, false)
		h.Access(1, addr, Home{Kind: HomeLocalDDR, Node: 0}, false)
	}
	requireHierEqual(t, ref, h)

	// Restore rewinds a diverged hierarchy back to the capture point.
	diverged := NewHierarchy(cfg)
	streamSeed(diverged)
	rng := sim.NewRng(31)
	for i := 0; i < 5000; i++ {
		diverged.Access(3, uint64(rng.Intn(1<<14))*LineBytes, Home{Kind: HomeRemote, Node: 1}, true)
	}
	if !diverged.Restore(snap) {
		t.Fatal("restore into diverged hierarchy failed")
	}
	want := NewHierarchy(cfg)
	streamSeed(want)
	requireHierEqual(t, want, diverged)
}

// TestSnapshotRefusesMismatch pins the one failure mode: a hierarchy of a
// different configuration refuses the snapshot and is left untouched.
func TestSnapshotRefusesMismatch(t *testing.T) {
	ref := NewHierarchy(shrunkConfig(4))
	streamSeed(ref)
	snap := ref.Capture()

	other := NewHierarchy(shrunkConfig(1))
	if other.Restore(snap) {
		t.Error("restore accepted a mismatched configuration")
	}
	if !other.Pristine() {
		t.Error("refused restore touched the hierarchy")
	}
}

// Randomized reference for RestoreRehomed. A generated shape is warmed by
// single-home read streams homed at H1, captured, and restored rehomed to
// H2 — a home of the same route class, under the shape's configuration or
// the one with the isolation flag flipped — into a pristine hierarchy.
// Scalar Access driving a pristine twin with H2 is the reference: the
// restored hierarchy must equal it, and stay equal under a suffix of mixed
// homes and writes.

// rehomeCase is one generated rehome: the shape warmed at from, and the
// home and configuration it is restored into.
type rehomeCase struct {
	sh    streamShape
	from  Home
	to    Home
	toCfg HierConfig
}

func (rc rehomeCase) String() string {
	return fmt.Sprintf("%v from %+v to %+v (isolation broken %t)",
		rc.sh, rc.from, rc.to, rc.toCfg.CXLBreaksIsolation)
}

// allHomes lists every home of a configuration: both kinds on every node.
func allHomes(cfg HierConfig) []Home {
	var homes []Home
	for _, kind := range []HomeKind{HomeLocalDDR, HomeRemote} {
		for n := 0; n < cfg.SNCNodes; n++ {
			homes = append(homes, Home{Kind: kind, Node: n})
		}
	}
	return homes
}

// rehomeFromSeed is the generator: the seed draws the shape, fromChoice
// picks H1 among its homes, and toChoice picks H2 among the homes of either
// isolation setting that share H1's route class (H1 itself among them).
func rehomeFromSeed(seed uint64, fromChoice, toChoice uint8) rehomeCase {
	sh := shapeFromSeed(seed)
	homes := allHomes(sh.cfg)
	from := homes[int(fromChoice)%len(homes)]
	class := sh.cfg.RouteClass(from)
	var targets []rehomeCase
	for _, flip := range []bool{false, true} {
		cfg := sh.cfg
		cfg.CXLBreaksIsolation = cfg.CXLBreaksIsolation != flip
		for _, to := range allHomes(cfg) {
			if cfg.RouteClass(to) == class {
				targets = append(targets, rehomeCase{sh: sh, from: from, to: to, toCfg: cfg})
			}
		}
	}
	return targets[int(toChoice)%len(targets)]
}

// checkRehome warms, captures and rehomes one case, failing at the first
// divergence from the Access reference.
func checkRehome(t *testing.T, rc rehomeCase) {
	t.Helper()
	rng := sim.NewRng(rc.sh.traffic)
	warm := NewHierarchy(rc.sh.cfg)
	cold := NewHierarchy(rc.toCfg)
	l1Lines, l2Lines := warm.PrivateLines(0)
	capacity := int64(l1Lines+l2Lines) + warm.EffectiveLLCLines(Home{Kind: HomeRemote})
	span := 1 + rng.Int63n(4*capacity)
	addr := func() uint64 { return uint64(rng.Int63n(span)) * LineBytes }

	// The warmup: single-home read streams from random cores, through every
	// stream path.
	for chunk := 0; chunk < 3; chunk++ {
		core := rng.Intn(rc.sh.cfg.Cores)
		addrs := make([]uint64, minShardedLen+rng.Intn(minShardedLen))
		for i := range addrs {
			addrs[i] = addr()
		}
		var counts LevelCounts
		if chunk == 0 {
			warm.ReadStream(core, addrs, rc.from, &counts)
		} else {
			warm.ReadStreamSharded(core, addrs, rc.from, &counts, 2*chunk-1) // 1, then 3 workers
		}
		for _, a := range addrs {
			cold.Access(core, a, rc.to, false)
		}
	}

	got := NewHierarchy(rc.toCfg)
	if !got.RestoreRehomed(warm.Capture(), rc.from, rc.to) {
		t.Fatalf("%v: rehomed restore refused", rc)
	}
	if d := hierDiff(cold, got); d != "" {
		t.Fatalf("%v: rehomed restore: %s", rc, d)
	}

	// Mixed homes and writes from here on: the rehomed hierarchy must keep
	// evolving exactly like the cold one.
	for i, n := 0, 500+rng.Intn(2000); i < n; i++ {
		core, a, home, write := rng.Intn(rc.toCfg.Cores), addr(), randomHome(rng, rc.toCfg), rng.Intn(3) == 0
		if got.Access(core, a, home, write) != cold.Access(core, a, home, write) {
			t.Fatalf("%v: suffix access %d: levels diverge", rc, i)
		}
	}
	if d := hierDiff(cold, got); d != "" {
		t.Fatalf("%v: after the mixed suffix: %s", rc, d)
	}
}

// requireRefused requires a RestoreRehomed to return false and leave both a
// pristine and a seeded target exactly as they were.
func requireRefused(t *testing.T, s *Snapshot, from, to Home, cfg HierConfig) {
	t.Helper()
	pristine := NewHierarchy(cfg)
	if pristine.RestoreRehomed(s, from, to) {
		t.Fatal("RestoreRehomed accepted the snapshot")
	}
	if !pristine.Pristine() {
		t.Fatal("refused restore touched a pristine target")
	}
	seeded, want := NewHierarchy(cfg), NewHierarchy(cfg)
	seedHierarchy(seeded)
	seedHierarchy(want)
	if seeded.RestoreRehomed(s, from, to) {
		t.Fatal("RestoreRehomed accepted the snapshot")
	}
	requireHierEqual(t, want, seeded)
}

// TestRestoreRehomedMatchesColdWarmup runs the generator's first cases,
// checks that they reach the rehomes it promises, and pins the three
// refusals.
func TestRestoreRehomedMatchesColdWarmup(t *testing.T) {
	seen := map[string]bool{}
	for seed := uint64(1); seed <= 48; seed++ {
		choices := sim.NewRng(seed).Uint64()
		rc := rehomeFromSeed(seed, uint8(choices), uint8(choices>>8))
		if rc.from.Kind != rc.to.Kind {
			seen["localddr<->remote"] = true
		}
		if rc.from.Node != rc.to.Node && rc.sh.cfg.RouteClass(rc.from).route.mask == uint64(rc.sh.cfg.Cores-1) {
			seen["node change on an all-slice route"] = true
		}
		if rc.toCfg.CXLBreaksIsolation != rc.sh.cfg.CXLBreaksIsolation {
			seen["isolation-flag flip"] = true
		}
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) { checkRehome(t, rc) })
	}
	var missing []string
	for _, want := range []string{"localddr<->remote", "node change on an all-slice route", "isolation-flag flip"} {
		if !seen[want] {
			missing = append(missing, want)
		}
	}
	if len(missing) > 0 {
		t.Errorf("generator never produced %v", missing)
	}

	cfg := shrunkConfig(4)
	single := NewHierarchy(cfg)
	var counts LevelCounts
	addrs := make([]uint64, 4000)
	rng := sim.NewRng(5)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1<<14)) * LineBytes
	}
	local0 := Home{Kind: HomeLocalDDR, Node: 0}
	single.ReadStream(0, addrs, local0, &counts)
	snap := single.Capture()
	t.Run("refuses a route-class mismatch", func(t *testing.T) {
		// Node 1's slices are not node 0's.
		requireRefused(t, snap, local0, Home{Kind: HomeLocalDDR, Node: 1}, cfg)
	})
	t.Run("refuses a geometry mismatch", func(t *testing.T) {
		// The same route into a hierarchy with larger L2s.
		other := cfg
		other.L2Bytes *= 2
		requireRefused(t, snap, local0, local0, other)
	})
	t.Run("refuses a mixed-home snapshot", func(t *testing.T) {
		// streamSeed fills remote node-0 and local node-1 lines, so even an
		// identity rehome of either home must refuse.
		mixed := NewHierarchy(cfg)
		streamSeed(mixed)
		s := mixed.Capture()
		requireRefused(t, s, Home{Kind: HomeRemote, Node: 0}, Home{Kind: HomeRemote, Node: 0}, cfg)
		requireRefused(t, s, Home{Kind: HomeLocalDDR, Node: 1}, Home{Kind: HomeLocalDDR, Node: 1}, cfg)
	})
}

// FuzzRestoreRehomed lets the fuzzer pick generator seeds and home choices
// beyond the ones the test runs.
func FuzzRestoreRehomed(f *testing.F) {
	for seed := uint64(1); seed <= 8; seed++ {
		f.Add(seed, uint8(seed), uint8(3*seed))
	}
	f.Fuzz(func(t *testing.T, seed uint64, fromChoice, toChoice uint8) {
		checkRehome(t, rehomeFromSeed(seed, fromChoice, toChoice))
	})
}
