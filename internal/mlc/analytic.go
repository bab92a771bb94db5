package mlc

import (
	"math"

	"cxlmem/internal/cache"
	"cxlmem/internal/sim"
	"cxlmem/internal/topo"
)

// Analytic buffer-latency fast path (DESIGN.md §12).
//
// Far from a capacity knee, BufferLatency's answer is fully determined by
// which levels the buffer fits in: a 32 MB uniform-random working set either
// fits the effective LLC or it doesn't, and the per-level hit fractions
// follow from the CHE working-set model in internal/cache/che.go without
// simulating a single access. The estimator below composes those fractions
// with the same per-level path.HitLatency the streamed loops charge, so off
// the knee it converges to the exact measurement (the divergence bound is
// property-tested in analytic_test.go). Near a knee — buffer within a factor
// 2^KneeMargin of a capacity — occupancy is genuinely contested and only
// exact simulation resolves it; BufferKneeDistance is the dial callers use
// to pick (experiments' auto fidelity).

// KneeMargin is the knee-proximity threshold, in doublings of buffer size:
// a buffer within 2^KneeMargin of a cache-capacity knee is "at the knee"
// and should be simulated exactly rather than estimated.
const KneeMargin = 0.5

// bufferLevelFractions returns the estimated fraction of uniform-random
// accesses served by each level for a buffer of bufBytes homed per home.
// L2 is inclusive of L1 (its hit rate covers L1's); the LLC runs as an
// exclusive victim cache of L2, so their capacities add.
func bufferLevelFractions(hier *cache.Hierarchy, home cache.Home, bufBytes int64) [cache.Memory + 1]float64 {
	l1Lines, l2Lines := hier.PrivateLines(0)
	l1B := int64(l1Lines) * cache.LineBytes
	l2B := int64(l2Lines) * cache.LineBytes
	llcB := hier.EffectiveLLCLines(home) * cache.LineBytes

	h1 := cache.WorkingSetHitRate(bufBytes, l1B)
	h2 := cache.WorkingSetHitRate(bufBytes, l2B)
	h3 := cache.WorkingSetHitRate(bufBytes, l2B+llcB)
	if h2 < h1 {
		h2 = h1
	}
	if h3 < h2 {
		h3 = h2
	}
	var frac [cache.Memory + 1]float64
	frac[cache.L1] = h1
	frac[cache.L2] = h2 - h1
	frac[cache.LLC] = h3 - h2
	frac[cache.Memory] = 1 - h3
	return frac
}

// BufferLatencyEstimate is the analytic counterpart of BufferLatency: the
// CHE level fractions weighted by the same per-level hit latencies the
// simulated loop charges. It costs microseconds instead of a warmed
// multi-million-access replay, and is accurate away from capacity knees
// (check BufferKneeDistance before trusting it near one).
func BufferLatencyEstimate(sys *topo.System, path *topo.Path, bufBytes int64) sim.Time {
	frac := bufferLevelFractions(sys.Hier, sys.HomeFor(path, 0), bufBytes)
	ns := 0.0
	for lvl := cache.L1; lvl <= cache.Memory; lvl++ {
		ns += frac[lvl] * path.HitLatency(lvl).Nanoseconds()
	}
	return sim.FromNanoseconds(ns)
}

// BufferKneeDistance reports how far bufBytes sits from the nearest
// capacity knee of the hierarchy as seen from path's home, in doublings:
// |log2(buffer / knee)| minimized over the L1, L2 and L2+effective-LLC
// capacities. A distance below KneeMargin means the buffer is close enough
// to a transition that the analytic model's sharp-corner approximation can
// misjudge the contested level's share.
func BufferKneeDistance(sys *topo.System, path *topo.Path, bufBytes int64) float64 {
	hier := sys.Hier
	home := sys.HomeFor(path, 0)
	l1Lines, l2Lines := hier.PrivateLines(0)
	eff := hier.EffectiveLLCLines(home)
	n := float64(bufBytes) / cache.LineBytes
	d := math.Inf(1)
	for _, knee := range []float64{float64(l1Lines), float64(l2Lines), float64(l2Lines) + float64(eff)} {
		if v := math.Abs(math.Log2(n / knee)); v < d {
			d = v
		}
	}
	return d
}
