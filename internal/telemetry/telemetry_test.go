package telemetry

import (
	"math"
	"reflect"
	"testing"

	"cxlmem/internal/sim"
)

func TestFeaturesOrder(t *testing.T) {
	s := Sample{L1MissLatencyNS: 1, DDRReadLatencyNS: 2, IPC: 3}
	f := s.Features()
	if len(f) != 3 || f[0] != 1 || f[1] != 2 || f[2] != 3 {
		t.Errorf("Features = %v", f)
	}
	if len(FeatureNames()) != len(f) {
		t.Error("feature names misaligned with features")
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
	if s.N() != 6 {
		t.Errorf("N = %d", s.N())
	}
}

func TestSamplerSmoothedWithoutAdd(t *testing.T) {
	s := NewSampler(3)
	if got := s.Smoothed(); got.L1MissLatencyNS != 0 || got.IPC != 0 {
		t.Errorf("empty smoothed = %+v", got)
	}
	s.Add(Sample{DDRReadLatencyNS: 100, CXLPercent: 25})
	got := s.Smoothed()
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

func TestSourceFunc(t *testing.T) {
	var src Source = SourceFunc(func() Sample { return Sample{IPC: 2} })
	if src.Counters().IPC != 2 {
		t.Error("SourceFunc adapter broken")
	}
}

// seqs returns the Seq of each event.
func seqs(events []sim.TraceEvent) []uint64 {
	out := make([]uint64, len(events))
	for i, te := range events {
		out[i] = te.Seq
	}
	return out
}

// observe feeds n dispatch events with sequence numbers from..from+n-1.
func observe(r *sim.TraceRing, from, n int) {
	for i := from; i < from+n; i++ {
		r.Observe(sim.TraceEvent{Phase: sim.PhaseDispatch, Seq: uint64(i)})
	}
}

// TestPublishAppendsTails: published runs land back to back, oldest run
// first, and the sink keeps counting past its capacity.
func TestPublishAppendsTails(t *testing.T) {
	sink := NewSimTrace(8)
	a, b := sim.NewTraceRing(sink.Cap()), sim.NewTraceRing(sink.Cap())
	observe(a, 0, 3)
	observe(b, 100, 10) // wraps: retains 102..109
	sink.Publish(a)
	if got := seqs(sink.Snapshot()); !reflect.DeepEqual(got, []uint64{0, 1, 2}) {
		t.Fatalf("after one run the sink holds %v", got)
	}
	sink.Publish(b)
	if got, want := seqs(sink.Snapshot()), []uint64{102, 103, 104, 105, 106, 107, 108, 109}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after two runs the sink holds %v, want %v", got, want)
	}
	if got := sink.Totals().Dispatched; got != 13 {
		t.Fatalf("sink counted %d dispatches, want 13", got)
	}
}

// TestPublishAfterShrinkKeepsNewest: a run sized before Configure shrank
// the sink publishes a tail longer than the sink; the newest events win.
func TestPublishAfterShrinkKeepsNewest(t *testing.T) {
	sink := NewSimTrace(64)
	run := sim.NewTraceRing(sink.Cap())
	observe(run, 0, 50)
	sink.Configure(8)
	sink.Publish(run)
	if got, want := seqs(sink.Snapshot()), []uint64{42, 43, 44, 45, 46, 47, 48, 49}; !reflect.DeepEqual(got, want) {
		t.Fatalf("shrunk sink holds %v, want %v", got, want)
	}
	if sink.Len() != 8 || sink.Cap() != 8 || sink.Totals().Dispatched != 50 {
		t.Fatalf("Len/Cap/Dispatched = %d/%d/%d, want 8/8/50", sink.Len(), sink.Cap(), sink.Totals().Dispatched)
	}

	// A run whose own ring wrapped is cut the same way.
	wrapped := sim.NewTraceRing(16)
	observe(wrapped, 0, 40) // retains 24..39
	sink.Configure(5)
	sink.Publish(wrapped)
	if got, want := seqs(sink.Snapshot()), []uint64{35, 36, 37, 38, 39}; !reflect.DeepEqual(got, want) {
		t.Fatalf("shrunk sink holds %v, want %v", got, want)
	}
}
