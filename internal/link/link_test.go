package link

import (
	"testing"
	"testing/quick"

	"cxlmem/internal/sim"
)

func TestStandardLinksValidate(t *testing.T) {
	for _, l := range []*Link{UPI(), CXLx8(), Mesh()} {
		if err := l.Validate(); err != nil {
			t.Errorf("%s: %v", l.Name, err)
		}
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	l := &Link{Name: "bad", Propagation: -1, BandwidthPerDir: 1}
	if err := l.Validate(); err == nil {
		t.Error("negative propagation should fail")
	}
	l = &Link{Name: "bad", Propagation: 1, BandwidthPerDir: 0}
	if err := l.Validate(); err == nil {
		t.Error("zero bandwidth should fail")
	}
}

func TestTraverse(t *testing.T) {
	l := CXLx8() // 40 ns propagation, 32 GB/s per direction
	// 64 bytes at 32 B/ns = 2 ns serialization.
	want := 42 * sim.Nanosecond
	if got := l.Traverse(64); got != want {
		t.Errorf("Traverse(64) = %v, want %v", got, want)
	}
	if got := l.Traverse(0); got != 40*sim.Nanosecond {
		t.Errorf("Traverse(0) = %v, want pure propagation", got)
	}
}

// TestSlotIsSerializationOnly: a pipelined request occupies the link only for
// its payload's serialization, without the propagation.
func TestSlotIsSerializationOnly(t *testing.T) {
	l := UPI() // 62.4 GB/s per direction
	slot := l.serialization(64)
	// 64/62.4 ≈ 1.0256 ns
	if ns := slot.Nanoseconds(); ns < 1.0 || ns > 1.1 {
		t.Errorf("UPI 64B slot = %v ns, want ~1.03", ns)
	}
	if l.serialization(0) != 0 {
		t.Error("zero payload slot should be 0")
	}
}

// TestO1FullDuplexAdvantage captures observation O1: for a pipelined stream,
// the per-request link occupancy is far below the serialized round trip of
// a command out and a line back.
func TestO1FullDuplexAdvantage(t *testing.T) {
	for _, l := range []*Link{UPI(), CXLx8()} {
		rt := l.Traverse(8) + l.Traverse(64)
		slot := l.serialization(64)
		if slot*10 > rt {
			t.Errorf("%s: slot %v not ≪ round trip %v", l.Name, slot, rt)
		}
	}
}

func TestSlotScalesLinearly(t *testing.T) {
	l := CXLx8()
	f := func(nRaw uint8) bool {
		n := int(nRaw)%64 + 1
		a := l.serialization(64 * n)
		b := sim.Time(n) * l.serialization(64)
		diff := a - b
		if diff < 0 {
			diff = -diff
		}
		return diff <= sim.Time(n) // rounding tolerance of 1 ps per chunk
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
