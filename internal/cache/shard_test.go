package cache

import (
	"fmt"
	"testing"

	"cxlmem/internal/sim"
)

// shrunkConfig is the stream tests' small hierarchy: every path (hits,
// misses, evictions, victim promotions) fires within a few thousand
// accesses, and the set counts still leave shardable index bits.
func shrunkConfig(snc int) HierConfig {
	cfg := SPRHierConfig(snc)
	cfg.L1Bytes, cfg.L1Ways = 2<<10, 4
	cfg.L2Bytes, cfg.L2Ways = 16<<10, 8
	cfg.LLCSliceBytes, cfg.LLCWays = 8<<10, 8
	return cfg
}

// hierDiff compares two hierarchies' complete state: every cache's packed
// words, fingerprint planes, recency order words and statistic counters,
// plus the aggregate LLC counters. Byte-identity, not tolerance. It also
// requires the fingerprint planes to mirror the words (sidecarDiff). It
// describes the first divergence, or returns "" when there is none.
func hierDiff(want, got *Hierarchy) string {
	if want.LLCHits != got.LLCHits || want.LLCMisses != got.LLCMisses {
		return fmt.Sprintf("LLC counters diverge: %d/%d, want %d/%d",
			got.LLCHits, got.LLCMisses, want.LLCHits, want.LLCMisses)
	}
	wa, ga := want.all(), got.all()
	for ci := range wa {
		w, g := wa[ci], ga[ci]
		if w.Hits != g.Hits || w.Misses != g.Misses || w.Evictions != g.Evictions {
			return fmt.Sprintf("cache %d counters diverge: %d/%d/%d, want %d/%d/%d",
				ci, g.Hits, g.Misses, g.Evictions, w.Hits, w.Misses, w.Evictions)
		}
		for i := range w.words {
			if w.words[i] != g.words[i] {
				return fmt.Sprintf("cache %d word %d diverges: %#x, want %#x", ci, i, g.words[i], w.words[i])
			}
		}
		for i := range w.meta {
			if w.meta[i] != g.meta[i] {
				return fmt.Sprintf("cache %d sidecar word %d diverges: %#x, want %#x", ci, i, g.meta[i], w.meta[i])
			}
		}
		// The states are equal, so this checks both sides.
		if d := sidecarDiff(g); d != "" {
			return fmt.Sprintf("cache %d: %s", ci, d)
		}
	}
	return ""
}

// requireHierEqual fails the test at the first divergence hierDiff finds.
func requireHierEqual(t *testing.T, want, got *Hierarchy) {
	t.Helper()
	if d := hierDiff(want, got); d != "" {
		t.Fatal(d)
	}
}

// seedHierarchy replays identical cross-core traffic — writes (dirty lines)
// and a foreign home included — into a hierarchy through the scalar path.
func seedHierarchy(h *Hierarchy) {
	seed := sim.NewRng(11)
	for i := 0; i < 2000; i++ {
		addr := uint64(seed.Intn(1<<14)) * LineBytes
		core := seed.Intn(4)
		write := seed.Intn(3) == 0
		h.Access(core, addr, Home{Kind: HomeRemote, Node: 0}, write)
	}
}

// TestReadStreamShardedMatchesSerial pins the sharded driver's contract on
// the SPR slice layout: for long streams, either home and worker counts up
// to 8, ReadStreamSharded leaves the hierarchy bit-identical to the serial
// ReadStream and reports the same histogram — the determinism the
// exact-fidelity golden corpus rides on.
func TestReadStreamShardedMatchesSerial(t *testing.T) {
	cases := []struct {
		name string
		snc  int
		home Home
	}{
		{"snc4-local", 4, Home{Kind: HomeLocalDDR, Node: 0}},
		{"snc4-remote", 4, Home{Kind: HomeRemote, Node: 1}},
		{"snc1-local", 1, Home{Kind: HomeLocalDDR, Node: 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := shrunkConfig(tc.snc)
			rng := sim.NewRng(7)
			addrs := make([]uint64, 40000)
			for i := range addrs {
				addrs[i] = uint64(rng.Intn(1<<14)) * LineBytes
			}

			ref := NewHierarchy(cfg)
			seedHierarchy(ref)
			var want LevelCounts
			ref.ReadStream(2, addrs, tc.home, &want)

			for _, workers := range []int{1, 3, 8} {
				h := NewHierarchy(cfg)
				seedHierarchy(h)
				var got LevelCounts
				h.ReadStreamSharded(2, addrs, tc.home, &got, workers)
				if got != want {
					t.Fatalf("workers=%d: histogram %v, want %v", workers, got, want)
				}
				requireHierEqual(t, ref, h)
			}
		})
	}
}

// TestReadStreamShardedSmallBatch pins the serial fallback: short streams
// skip the partition pass but still produce identical results.
func TestReadStreamShardedSmallBatch(t *testing.T) {
	cfg := shrunkConfig(4)
	rng := sim.NewRng(5)
	addrs := make([]uint64, minShardedLen/2)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1<<12)) * LineBytes
	}
	home := Home{Kind: HomeRemote, Node: 0}

	ref := NewHierarchy(cfg)
	var want LevelCounts
	ref.ReadStream(0, addrs, home, &want)

	h := NewHierarchy(cfg)
	var got LevelCounts
	h.ReadStreamSharded(0, addrs, home, &got, 4)
	if got != want {
		t.Fatalf("histogram %v, want %v", got, want)
	}
	requireHierEqual(t, ref, h)
}

// TestReadStreamShardedChunkingInvariant pins that splitting one stream into
// consecutive sharded calls composes: the warmup loops chunk multi-million
// access passes and must land in the same state as one call.
func TestReadStreamShardedChunkingInvariant(t *testing.T) {
	cfg := shrunkConfig(4)
	rng := sim.NewRng(9)
	addrs := make([]uint64, 30000)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1<<14)) * LineBytes
	}
	home := Home{Kind: HomeRemote, Node: 1}

	ref := NewHierarchy(cfg)
	var want LevelCounts
	ref.ReadStreamSharded(0, addrs, home, &want, 2)

	h := NewHierarchy(cfg)
	var got LevelCounts
	for lo := 0; lo < len(addrs); lo += 7000 {
		hi := min(lo+7000, len(addrs))
		h.ReadStreamSharded(0, addrs[lo:hi], home, &got, 3)
	}
	if got != want {
		t.Fatalf("histogram %v, want %v", got, want)
	}
	requireHierEqual(t, ref, h)
}

// TestReadStreamShardedPanicsOnBadCore matches ReadStream's contract.
func TestReadStreamShardedPanicsOnBadCore(t *testing.T) {
	h := NewHierarchy(SPRHierConfig(1))
	defer func() {
		if recover() == nil {
			t.Error("out-of-range core should panic")
		}
	}()
	var c LevelCounts
	h.ReadStreamSharded(99, []uint64{0}, Home{}, &c, 2)
}

// TestEffectiveLLCLines pins the analytic tier's capacity model against the
// byte-based accessor across SNC modes and homes.
func TestEffectiveLLCLines(t *testing.T) {
	for _, snc := range []int{1, 4} {
		h := NewHierarchy(SPRHierConfig(snc))
		for _, home := range []Home{{Kind: HomeLocalDDR}, {Kind: HomeRemote}} {
			gotBytes := h.EffectiveLLCLines(home) * LineBytes
			if gotBytes != h.EffectiveLLCBytes(home) {
				t.Errorf("snc=%d home=%v: EffectiveLLCLines*64 = %d, EffectiveLLCBytes = %d",
					snc, home, gotBytes, h.EffectiveLLCBytes(home))
			}
		}
	}
}
