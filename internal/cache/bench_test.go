package cache

// Engine micro-benchmarks: the per-operation and per-access costs the mlc
// measurement loops are built from, so the packed tag engine has its own
// tracked baseline (like internal/numa's allocator benchmarks). Run with
//
//	go test ./internal/cache -run '^$' -bench . -benchmem

import (
	"testing"

	"cxlmem/internal/sim"
)

// BenchmarkCacheLookupHit measures a hot single-set hit (the L1 fast path).
func BenchmarkCacheLookupHit(b *testing.B) {
	c := NewCache(48<<10, 12)
	c.Insert(0x1000, Home{}, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(0x1000, false)
	}
}

// BenchmarkCacheLookupMiss measures a full-set scan that concludes a miss.
func BenchmarkCacheLookupMiss(b *testing.B) {
	c := NewCache(LineBytes*16, 16) // single full set
	for i := uint64(0); i < 16; i++ {
		c.Insert(i*LineBytes, Home{}, false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(1<<30, false)
	}
}

// BenchmarkCacheInsertEvict measures the fused scan+shift insert with an
// eviction on every call (full set, always-new tags).
func BenchmarkCacheInsertEvict(b *testing.B) {
	c := NewCache(LineBytes*16, 16) // single set
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Insert(uint64(i)*LineBytes, Home{}, false)
	}
}

// BenchmarkCacheProbeRemoveHit measures the combined LLC victim-cache
// operation: probe, hit, compact — plus the refill that keeps it hitting.
func BenchmarkCacheProbeRemoveHit(b *testing.B) {
	c := NewCache(LineBytes*16, 16)
	c.Insert(0, Home{}, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ProbeRemove(0)
		c.Insert(0, Home{}, false)
	}
}

// benchHierarchy streams n uniform random line addresses over bufLines
// through a fresh SNC-4 hierarchy and reports ns per simulated access.
func benchHierarchy(b *testing.B, home Home, bufLines int64) {
	h := NewHierarchy(SPRHierConfig(4))
	rng := sim.NewRng(7)
	batch := make([]uint64, 4096)
	var counts LevelCounts
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			batch[j] = uint64(rng.Int63n(bufLines)) * LineBytes
		}
		h.ReadStream(0, batch, home, &counts)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batch)), "ns/access")
}

// BenchmarkAccessL1L2Resident: the working set fits the private caches, so
// the stream exercises the L1/L2 hit paths.
func BenchmarkAccessL1L2Resident(b *testing.B) {
	benchHierarchy(b, Home{Kind: HomeLocalDDR}, 4096) // 256 KB buffer
}

// BenchmarkAccessLLCPromote: the working set overflows L2 but fits the
// socket LLC for a CXL home, so the stream is dominated by the LLC
// probe-remove-promote path.
func BenchmarkAccessLLCPromote(b *testing.B) {
	benchHierarchy(b, Home{Kind: HomeRemote}, 1<<18) // 16 MB buffer
}

// BenchmarkAccessMemoryMiss: a DDR-homed working set larger than the node's
// slices — the fig5 shape, heavy on full misses with victim spills.
func BenchmarkAccessMemoryMiss(b *testing.B) {
	benchHierarchy(b, Home{Kind: HomeLocalDDR}, 1<<19) // 32 MB buffer
}

// BenchmarkAccessScalar pins the scalar Access entry point on the miss-heavy
// shape, to keep the ReadStream fast path honest.
func BenchmarkAccessScalar(b *testing.B) {
	h := NewHierarchy(SPRHierConfig(4))
	home := Home{Kind: HomeLocalDDR}
	rng := sim.NewRng(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(0, uint64(rng.Int63n(1<<19))*LineBytes, home, false)
	}
}

// BenchmarkRestoreRehomed times the warm-state cache's hit path on the SPR
// SNC-4 arena: a capture of fig5's DDR5-L warmup shape (local DDR on node
// 0, 32 MB buffer) restored, rehomed to CXL on node 0, into a pristine
// hierarchy with the isolation break off — ablation-llc's isolation-kept
// point. The warm stream, the capture and each target's construction run
// outside the timer; the arena carve and the rewrite inside it.
func BenchmarkRestoreRehomed(b *testing.B) {
	from, to := Home{Kind: HomeLocalDDR}, Home{Kind: HomeRemote}
	warm := NewHierarchy(SPRHierConfig(4))
	rng := sim.NewRng(7)
	batch := make([]uint64, 1<<19) // one pass over the 32 MB buffer
	for i := range batch {
		batch[i] = uint64(rng.Int63n(1<<19)) * LineBytes
	}
	var counts LevelCounts
	warm.ReadStreamSharded(0, batch, from, &counts, 1)
	snap := warm.Capture()
	kept := SPRHierConfig(4)
	kept.CXLBreaksIsolation = false
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h := NewHierarchy(kept)
		b.StartTimer()
		if !h.RestoreRehomed(snap, from, to) {
			b.Fatal("rehomed restore refused")
		}
	}
}
