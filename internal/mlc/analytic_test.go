package mlc

import (
	"math"
	"testing"

	"cxlmem/internal/topo"
)

// TestBufferLatencyWorkersInvariant pins the sharded driver's promise at the
// measurement level: the worker count is throughput-only, the returned
// latency is bit-identical for any setting.
func TestBufferLatencyWorkersInvariant(t *testing.T) {
	const buf = 4 << 20
	measure := func(workers int) [2]int64 {
		var out [2]int64
		for i, name := range []string{"DDR5-L", "CXL-A"} {
			sys := topo.NewSystem(topo.DefaultConfig())
			got := BufferLatencyOpt(sys, sys.Path(name), buf, 20000, 3, StreamOptions{Workers: workers})
			out[i] = int64(got)
		}
		return out
	}
	want := measure(1)
	for _, workers := range []int{2, 4} {
		if got := measure(workers); got != want {
			t.Errorf("workers=%d: latencies %v, want %v", workers, got, want)
		}
	}
}

// TestBufferLatencyEstimateTracksExact is the divergence property test the
// auto fidelity tier rests on: wherever BufferKneeDistance clears KneeMargin
// the analytic estimate must stay within 10% of exact simulation, and well
// clear of every knee (two doublings) within 5%. The 32 MB points are the
// fig5 operating points themselves.
func TestBufferLatencyEstimateTracksExact(t *testing.T) {
	for _, tc := range []struct {
		name string
		buf  int64
	}{
		{"DDR5-L", 256 << 10},
		{"CXL-A", 256 << 10},
		{"DDR5-L", 4 << 20},
		{"CXL-A", 4 << 20},
		{"DDR5-L", 32 << 20},
		{"CXL-A", 32 << 20},
	} {
		sys := topo.NewSystem(topo.DefaultConfig())
		p := sys.Path(tc.name)
		dist := BufferKneeDistance(sys, p, tc.buf)
		exact := BufferLatency(sys, p, tc.buf, 50000, 3).Nanoseconds()
		est := BufferLatencyEstimate(sys, p, tc.buf).Nanoseconds()
		rel := math.Abs(est-exact) / exact
		t.Logf("%s %d MB: exact %.1f ns, estimate %.1f ns (%.1f%% off, knee distance %.2f)",
			tc.name, tc.buf>>20, exact, est, rel*100, dist)
		if dist >= 2 && rel > 0.05 {
			t.Errorf("%s buf=%d: estimate %.1f ns vs exact %.1f ns (%.1f%% off) at knee distance %.2f >= 2",
				tc.name, tc.buf, est, exact, rel*100, dist)
		}
		if dist >= KneeMargin && rel > 0.10 {
			t.Errorf("%s buf=%d: estimate %.1f ns vs exact %.1f ns (%.1f%% off) at knee distance %.2f >= KneeMargin",
				tc.name, tc.buf, est, exact, rel*100, dist)
		}
	}
}

// TestBufferKneeDistanceAtKnee pins the dial itself: a buffer equal to a
// capacity knee reports distance 0, and doubling the buffer moves the
// distance by at most one.
func TestBufferKneeDistanceAtKnee(t *testing.T) {
	sys := topo.NewSystem(topo.DefaultConfig())
	p := sys.Path("CXL-A")
	l1Lines, _ := sys.Hier.PrivateLines(0)
	atKnee := BufferKneeDistance(sys, p, int64(l1Lines)*64)
	if atKnee != 0 {
		t.Errorf("distance at the L1 knee = %v, want 0", atKnee)
	}
	prev := atKnee
	for buf := int64(l1Lines) * 64 * 2; buf <= 256<<20; buf *= 2 {
		d := BufferKneeDistance(sys, p, buf)
		if math.Abs(d-prev) > 1+1e-9 {
			t.Errorf("knee distance jumped %v -> %v on one doubling (buf=%d)", prev, d, buf)
		}
		prev = d
	}
}
