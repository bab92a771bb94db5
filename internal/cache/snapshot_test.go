package cache

import (
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
	if snap.Config() != cfg {
		t.Errorf("snapshot config = %+v, want %+v", snap.Config(), cfg)
	}
	if snap.Bytes() <= 0 {
		t.Errorf("snapshot bytes = %d", snap.Bytes())
	}

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
