package cache

import "testing"

// TestWorkingSetHitRateRouting: byte quantities convert at line
// granularity, the result is the uniform model's capacity/n, and an empty
// working set always hits.
func TestWorkingSetHitRateRouting(t *testing.T) {
	if got := WorkingSetHitRate(0, 1<<20); got != 1 {
		t.Errorf("empty working set = %v, want 1", got)
	}
	if got, want := WorkingSetHitRate(4<<20, 1<<20), 0.25; got != want {
		t.Errorf("uniform 1MB/4MB = %v, want %v", got, want)
	}
	if got, want := WorkingSetHitRate(4<<20, 1<<20), UniformLRUHitRate(4<<20/LineBytes, 1<<20/LineBytes); got != want {
		t.Errorf("WorkingSetHitRate = %v, UniformLRUHitRate over lines = %v", got, want)
	}
	// Sub-line working set rounds up to one item.
	if got := WorkingSetHitRate(1, LineBytes); got != 1 {
		t.Errorf("one-line working set in a one-line cache = %v, want 1", got)
	}
}
