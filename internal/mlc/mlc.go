// Package mlc reimplements the measurement semantics of Intel Memory Latency
// Checker (MLC) against the simulated system (paper §3.2):
//
//   - idle latency: a pointer chase — each load's address depends on the
//     previous load's value, so accesses are fully serialized — over a buffer
//     larger than the total LLC, forcing every access to memory;
//   - loaded bandwidth: all cores issue sequential streams at a given
//     read:write ratio, measuring the delivered fraction of the device's
//     theoretical peak (the paper's "bandwidth efficiency" metric, Fig. 4a);
//   - buffer latency: average latency of random accesses within a buffer of
//     a chosen size, which exposes the SNC/LLC interaction of §4.3 (Fig. 5).
//
// The measurement loops are streamed: addresses are generated in large
// chunks — the idle-latency chase is one precomputed Sattolo cycle, so its
// addresses are known ahead too — and driven through
// cache.Hierarchy.ReadStreamSharded, which partitions each chunk by
// set-index prefix, replays the shards (across StreamOptions.Workers
// goroutines; every CPU for IdleLatency), and accumulates a per-level hit
// histogram; the average latency is computed once per level at the end.
// Sharding is byte-identical to the serial stream for every worker count
// (see internal/cache/stream.go), and because every access at a level
// contributes the same integer path.HitLatency, the histogram arithmetic is
// exactly the historical per-access sum.
//
// For far-from-knee operating points the analytic fast path (analytic.go)
// replaces simulation entirely; see DESIGN.md §12.
package mlc

import (
	"context"

	"cxlmem/internal/cache"
	"cxlmem/internal/mem"
	"cxlmem/internal/sim"
	"cxlmem/internal/topo"
)

// chunkLines is the streamed loops' address-chunk size. Chunks are the unit
// the sharded stream engine partitions, so bigger is better — each shard's
// subsequence grows proportionally, and with it the host-cache locality of
// the shard replay — bounded here at 4 MB of addresses per chunk. Chunk
// boundaries never change results (TestReadStreamShardedChunkingInvariant).
const chunkLines = 512 << 10

// StreamOptions tunes how the measurement loops drive the cache hierarchy.
// The zero value reproduces the historical defaults. Workers only changes
// throughput and Ctx only bounds the run: a measurement that completes is
// byte-identical for any setting of either.
type StreamOptions struct {
	// Workers bounds the sharded stream engine's concurrent shard workers;
	// 0 uses every available CPU.
	Workers int
	// Ctx bounds BufferLatency's warmup: it is checked between address
	// chunks, and a cancellation unwinds as a panic carrying Ctx's error
	// (the sweep engine's convention — experiments.recoverAsErr restores
	// it). A canceled warmup is never retained by the warm-state cache.
	// nil means uncancellable.
	Ctx context.Context
}

// context resolves Ctx, nil meaning uncancellable.
func (o StreamOptions) context() context.Context {
	if o.Ctx == nil {
		return context.Background()
	}
	return o.Ctx
}

// streamTotal converts a per-level hit histogram into the total simulated
// latency — identical arithmetic to summing path.HitLatency per access,
// performed once per level.
func streamTotal(path *topo.Path, counts *cache.LevelCounts) sim.Time {
	var total sim.Time
	for lvl := cache.L1; lvl <= cache.Memory; lvl++ {
		total += sim.Time(counts[lvl]) * path.HitLatency(lvl)
	}
	return total
}

// IdleLatency measures the serialized (pointer-chase) load latency to the
// device behind path. The chase follows a shuffled single-cycle permutation
// (Sattolo's algorithm, deterministic from seed) over a buffer twice the
// LLC: each load's address is the pointer the previous load returned —
// MLC's shuffled-pointer buffer — so in steady state essentially every
// access misses the hierarchy and pays the full serial path latency. The
// chase is computed ahead in chunks and streamed through the sharded engine.
func IdleLatency(sys *topo.System, path *topo.Path, steps int, seed uint64) sim.Time {
	if steps <= 0 {
		panic("mlc: non-positive step count")
	}
	hier := sys.Hier
	home := sys.HomeFor(path, 0)
	bufBytes := int64(2) * int64(hier.Config().Cores) * hier.Config().LLCSliceBytes
	lines := int(bufBytes / cache.LineBytes)

	// Build the chase: next[i] is the line the load of line i points at,
	// one cycle through the whole buffer (Sattolo), so the chase can never
	// trap itself in a short cache-resident loop.
	rng := sim.NewRng(seed)
	next := make([]uint32, lines)
	for i := range next {
		next[i] = uint32(i)
	}
	for i := lines - 1; i > 0; i-- {
		j := rng.Intn(i)
		next[i], next[j] = next[j], next[i]
	}

	var counts cache.LevelCounts
	chunk := make([]uint64, min(steps, chunkLines))
	idx := uint32(0)
	for remaining := steps; remaining > 0; {
		n := min(remaining, chunkLines)
		b := chunk[:n]
		for i := range b {
			b[i] = uint64(idx) * cache.LineBytes
			idx = next[idx]
		}
		hier.ReadStreamSharded(0, b, home, &counts, 0)
		remaining -= n
	}
	return streamTotal(path, &counts) / sim.Time(steps)
}

// WarmMaxPasses is BufferLatency's warmup length in buffer passes: the
// warmup streams WarmMaxPasses × lines random touches before the first
// measured sample, the fixed length the golden corpus pins.
const WarmMaxPasses = 6

// BufferLatency measures the average latency of random accesses within a
// buffer of bufBytes homed on path's device — the §4.3 experiment: a 32 MB
// buffer fits the socket-wide LLC when homed on CXL memory but overflows a
// single SNC node's slices when homed on local DDR.
func BufferLatency(sys *topo.System, path *topo.Path, bufBytes int64, samples int, seed uint64) sim.Time {
	return BufferLatencyOpt(sys, path, bufBytes, samples, seed, StreamOptions{})
}

// runWarmup brings hier to the buffer measurement's steady state, drawing
// the warmup stream from rng (which is left positioned at the start of the
// measurement stream). It is the single warmup implementation: the inline
// path and the warm-state cache's compute path both call it, so a restored
// snapshot is byte-identical to a cold warmup by construction. ctx is
// checked between address chunks; the only error returned is ctx's.
func runWarmup(ctx context.Context, hier *cache.Hierarchy, home cache.Home, lines int64, rng *sim.Rng, workers int) error {
	chunk := make([]uint64, chunkLines)
	var counts cache.LevelCounts
	for remaining := int(lines) * WarmMaxPasses; remaining > 0; {
		if err := ctx.Err(); err != nil {
			return err
		}
		n := min(remaining, chunkLines)
		b := chunk[:n]
		for i := range b {
			b[i] = uint64(rng.Int63n(lines)) * cache.LineBytes
		}
		hier.ReadStreamSharded(0, b, home, &counts, workers)
		remaining -= n
	}
	return nil
}

// BufferLatencyOpt is BufferLatency with explicit StreamOptions. Random
// accesses are already independent of each other, so the whole warmup and
// measurement stream is generated ahead of the simulation in large chunks
// and driven through the sharded engine. The warmup goes through the
// warm-state snapshot cache (warmstate.go) when the hierarchy is pristine:
// repeated operating points restore the memoized warmed state instead of
// re-simulating millions of warmup accesses.
func BufferLatencyOpt(sys *topo.System, path *topo.Path, bufBytes int64, samples int, seed uint64, o StreamOptions) sim.Time {
	if samples <= 0 || bufBytes < cache.LineBytes {
		panic("mlc: invalid buffer latency parameters")
	}
	hier := sys.Hier
	home := sys.HomeFor(path, 0)
	lines := bufBytes / cache.LineBytes

	// rng comes back positioned at the start of the measurement stream,
	// whether the warmup was simulated or restored from a snapshot.
	rng := warmBuffer(o.context(), hier, home, lines, seed, o)

	chunk := make([]uint64, chunkLines)
	var counts cache.LevelCounts
	for remaining := samples; remaining > 0; {
		n := min(remaining, chunkLines)
		b := chunk[:n]
		for i := range b {
			b[i] = uint64(rng.Int63n(lines)) * cache.LineBytes
		}
		hier.ReadStreamSharded(0, b, home, &counts, o.Workers)
		remaining -= n
	}
	return streamTotal(path, &counts) / sim.Time(samples)
}

// BandwidthResult reports one loaded-bandwidth measurement.
type BandwidthResult struct {
	// AchievedGBs is the delivered bandwidth.
	AchievedGBs float64
	// Efficiency is AchievedGBs over the device's theoretical peak — the
	// y-axis of Fig. 4.
	Efficiency float64
}

// LoadedBandwidth measures the maximum sequential bandwidth at the given
// read:write mix: every core streams, offering far more demand than any
// device can serve, so the result is capacity at that mix.
func LoadedBandwidth(path *topo.Path, mix mem.MixPoint) BandwidthResult {
	dev := path.Device
	window := sim.Millisecond
	wf := mix.WriteFraction()
	// Offer 10× the theoretical peak so the device saturates.
	offered := dev.PeakGBs() * window.Nanoseconds() * 10
	served := dev.Serve(mem.Demand{
		ReadBytes:  offered * (1 - wf),
		WriteBytes: offered * wf,
	}, window)
	achieved := served.Total() / window.Nanoseconds()
	return BandwidthResult{
		AchievedGBs: achieved,
		Efficiency:  achieved / dev.PeakGBs(),
	}
}

// MixSweep measures loaded bandwidth at every Fig. 4a mix point.
func MixSweep(path *topo.Path) map[mem.MixPoint]BandwidthResult {
	out := make(map[mem.MixPoint]BandwidthResult, 4)
	for _, m := range mem.MixPoints() {
		out[m] = LoadedBandwidth(path, m)
	}
	return out
}
