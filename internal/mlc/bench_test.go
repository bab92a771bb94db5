package mlc

// End-to-end benchmarks of the streamed measurement loops — the code paths
// that dominate fig5 and ablation-llc. Together with internal/cache's
// per-operation benchmarks these give the engine a tracked baseline.

import (
	"testing"

	"cxlmem/internal/topo"
)

// benchBuffer regenerates one 32 MB buffer-latency measurement (the fig5
// inner loop) at the quick-mode sample count, warmup included: the
// warm-state cache is off while it runs, or every iteration after the first
// would restore the warmed hierarchy instead of simulating it.
func benchBuffer(b *testing.B, device string) {
	ConfigureWarmStates(-1)
	b.Cleanup(func() { ConfigureWarmStates(DefaultWarmStateEntries) })
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sys := topo.NewSystem(topo.DefaultConfig())
		sink += BufferLatency(sys, sys.Path(device), 32<<20, 20000, 3).Nanoseconds()
	}
	if sink == 0 {
		b.Fatal("zero latency")
	}
}

func BenchmarkBufferLatencyDDRExact(b *testing.B) { benchBuffer(b, "DDR5-L") }
func BenchmarkBufferLatencyCXLExact(b *testing.B) { benchBuffer(b, "CXL-A") }

// BenchmarkIdleLatency measures the pointer-chase loop, permutation build
// included (it is part of every real call).
func BenchmarkIdleLatency(b *testing.B) {
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sys := topo.NewSystem(topo.MicrobenchConfig())
		sink += IdleLatency(sys, sys.Path("CXL-A"), 20000, 1).Nanoseconds()
	}
	if sink == 0 {
		b.Fatal("zero latency")
	}
}
