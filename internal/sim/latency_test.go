package sim

import (
	"fmt"
	"math"
	"sort"
	"testing"
)

// refSortedNanoseconds is the reference: convert every latency, then
// sort.Float64s the floats.
func refSortedNanoseconds(lats []Time) []float64 {
	out := make([]float64, len(lats))
	for i, t := range lats {
		out[i] = t.Nanoseconds()
	}
	sort.Float64s(out)
	return out
}

// checkSortedNanoseconds requires SortedNanoseconds to append the
// reference's bits after a prefix it keeps, and to leave lats ascending.
func checkSortedNanoseconds(t *testing.T, lats []Time) {
	t.Helper()
	want := refSortedNanoseconds(lats)
	prefix := []float64{-1, 2}
	got := SortedNanoseconds(append([]float64(nil), prefix...), lats)
	if len(got) != len(prefix)+len(want) || got[0] != -1 || got[1] != 2 {
		t.Fatalf("len %d: the result lost its prefix or has %d values", len(lats), len(got))
	}
	for i, w := range want {
		if g := got[len(prefix)+i]; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("len %d: value %d is %v, want %v", len(lats), i, g, w)
		}
	}
	for i := 1; i < len(lats); i++ {
		if lats[i] < lats[i-1] {
			t.Fatalf("len %d: lats not ascending at %d", len(lats), i)
		}
	}
}

// TestSortedNanosecondsMatchesReference covers lengths 0, 1, 2, around the
// insertion-sort cut-over and large; duplicates, zeros, negative times,
// values near 2^62 and the int64 extremes; spreads that leave different
// digits constant.
func TestSortedNanosecondsMatchesReference(t *testing.T) {
	rng := NewRng(5)
	gens := map[string]func(i int) Time{
		"zeros":      func(int) Time { return 0 },
		"small":      func(int) Time { return Time(rng.Intn(16)) },
		"dups":       func(int) Time { return Time(rng.Intn(4)) * Microsecond },
		"latencies":  func(int) Time { return Time(rng.Int63n(int64(2 * Millisecond))) },
		"wide":       func(int) Time { return Time(rng.Uint64() >> 1) },
		"near2^62":   func(int) Time { return Time(1<<62 + int64(rng.Intn(1024)) - 512) },
		"signed":     func(int) Time { return Time(rng.Uint64()) },
		"extremes":   func(i int) Time { return []Time{math.MinInt64, math.MaxInt64, 0, -1, 1}[i%5] },
		"descending": func(i int) Time { return Time(1_000_000 - i) },
		"high-digit": func(int) Time { return Time(rng.Intn(3)) << 56 },
	}
	for name, gen := range gens {
		for _, n := range []int{0, 1, 2, 3, radixMinLen - 1, radixMinLen, radixMinLen + 1, 257, 5000, 100_000} {
			lats := make([]Time, n)
			for i := range lats {
				lats[i] = gen(i)
			}
			t.Run(name, func(t *testing.T) { checkSortedNanoseconds(t, lats) })
		}
	}
}

// FuzzSortedNanoseconds compares fuzzer-chosen latency slices, eight bytes
// per value and optionally masked to a narrow range, with the reference.
func FuzzSortedNanoseconds(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0}, uint8(64))
	f.Add(make([]byte, 8*100), uint8(20))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0x80}, uint8(64))
	f.Fuzz(func(t *testing.T, data []byte, bits uint8) {
		lats := make([]Time, len(data)/8)
		mask := ^uint64(0)
		if b := bits % 65; b < 64 {
			mask = 1<<b - 1
		}
		for i := range lats {
			var v uint64
			for j := 0; j < 8; j++ {
				v |= uint64(data[8*i+j]) << (8 * j)
			}
			lats[i] = Time(v & mask)
		}
		// Repeat short inputs so the radix path runs too.
		for len(lats) > 0 && len(lats) < 4*radixMinLen {
			lats = append(lats, lats...)
		}
		checkSortedNanoseconds(t, lats)
	})
}

// BenchmarkSortedNanoseconds sorts latency-shaped values (a few µs to a
// millisecond, in picoseconds) at a tpp-timeline epoch's length and at a
// fig6b run's, against the float sort it replaces.
func BenchmarkSortedNanoseconds(b *testing.B) {
	for _, n := range []int{750, 20000} {
		rng := NewRng(uint64(n))
		src := make([]Time, n)
		for i := range src {
			src[i] = 2*Microsecond + Time(rng.Exp(float64(50*Microsecond)))
		}
		lats := make([]Time, n)
		dst := make([]float64, 0, n)
		b.Run(fmt.Sprintf("radix/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(lats, src)
				dst = SortedNanoseconds(dst[:0], lats)
			}
		})
		b.Run(fmt.Sprintf("float64s/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dst = dst[:0]
				for _, t := range src {
					dst = append(dst, t.Nanoseconds())
				}
				sort.Float64s(dst)
			}
		})
	}
}
