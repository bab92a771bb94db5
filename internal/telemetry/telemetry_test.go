package telemetry

import (
	"math"
	"testing"
)

func TestFeaturesOrder(t *testing.T) {
	s := Sample{L1MissLatencyNS: 1, DDRReadLatencyNS: 2, IPC: 3}
	f := s.Features()
	if len(f) != 3 || f[0] != 1 || f[1] != 2 || f[2] != 3 {
		t.Errorf("Features = %v", f)
	}
}

func TestSamplerSmoothing(t *testing.T) {
	s := NewSampler(5)
	var out Sample
	for i := 1; i <= 5; i++ {
		out = s.Add(Sample{L1MissLatencyNS: float64(i) * 10, IPC: 1})
	}
	// Mean of 10..50 = 30.
	if math.Abs(out.L1MissLatencyNS-30) > 1e-9 {
		t.Errorf("smoothed L1 = %v, want 30", out.L1MissLatencyNS)
	}
	if out.IPC != 1 {
		t.Errorf("smoothed IPC = %v", out.IPC)
	}
	// A spike moves the average by only 1/window of its weight.
	out = s.Add(Sample{L1MissLatencyNS: 1000, IPC: 1})
	if out.L1MissLatencyNS > 250 {
		t.Errorf("spike insufficiently damped: %v", out.L1MissLatencyNS)
	}
}

// Slots of the window that no Add has filled yet do not count: one sample
// smooths to itself, and fields it leaves at zero stay zero.
func TestSamplerSmoothedWithoutAdd(t *testing.T) {
	s := NewSampler(3)
	got := s.Add(Sample{DDRReadLatencyNS: 100, CXLPercent: 25})
	if got.L1MissLatencyNS != 0 || got.IPC != 0 {
		t.Errorf("fields never sampled smoothed to %+v", got)
	}
	if got.DDRReadLatencyNS != 100 {
		t.Errorf("smoothed DDR latency = %v", got.DDRReadLatencyNS)
	}
	if got.CXLPercent != 25 {
		t.Errorf("CXLPercent should pass through, got %v", got.CXLPercent)
	}
}

func TestSamplerPanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewSampler(0)
}
