package numa

import "testing"

// BenchmarkSpaceAlloc measures the end-to-end hot path of every workload
// build: placing pages through the weighted-interleave policy.
func BenchmarkSpaceAlloc(b *testing.B) {
	const pages = 100_000
	b.SetBytes(pages * PageBytes)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewSpace(NewDDRCXLSplit(25))
		s.Alloc(pages)
	}
}

// BenchmarkPagesOnNode measures the indexed per-node page listing under a
// migration-heavy access pattern.
func BenchmarkPagesOnNode(b *testing.B) {
	s := NewSpace(NewDDRCXLSplit(25))
	s.Alloc(100_000)
	var buf []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = s.AppendPagesOnNode(buf[:0], 1)
		s.Move(buf[i%len(buf)], i%2)
	}
}
