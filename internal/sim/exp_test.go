package sim

import (
	"math"
	"testing"
)

// Exp returns an exponentially distributed value with the given mean. It is
// the reference for the certified draws: ExpNanoseconds(mean) must equal
// FromNanoseconds(Exp(mean)) and ExpJitter(scale, base, slope) must equal
// Time(scale·(base + slope·Exp(1))), from the same stream.
func (r *Rng) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// rngBefore returns a generator whose next Float64 is u, which must be a
// nonzero multiple of 2^-53 below 1: it inverts SplitMix64's output
// function, so a test can feed chosen uniforms through the production draws.
func rngBefore(u float64) *Rng {
	z := uint64(u*(1<<53)) << 11
	z = unxorshift(z, 31)
	z *= inverseOdd(0x94d049bb133111eb)
	z = unxorshift(z, 27)
	z *= inverseOdd(0xbf58476d1ce4e5b9)
	z = unxorshift(z, 30)
	return NewRng(z - 0x9e3779b97f4a7c15)
}

// unxorshift inverts z ^= z >> s.
func unxorshift(z uint64, s uint) uint64 {
	x := z
	for i := uint(0); i < 64; i += s {
		x = z ^ x>>s
	}
	return x
}

// inverseOdd returns the multiplicative inverse of an odd c modulo 2^64.
func inverseOdd(c uint64) uint64 {
	inv := c
	for i := 0; i < 5; i++ {
		inv *= 2 - c*inv
	}
	return inv
}

func TestRngBefore(t *testing.T) {
	for _, u := range []float64{0x1p-53, 0.5, 1 - 0x1p-53, 0.123456789} {
		u = math.Floor(u*(1<<53)) / (1 << 53)
		if got := rngBefore(u).Float64(); got != u {
			t.Fatalf("rngBefore(%v).Float64() = %v", u, got)
		}
	}
}

// expUniforms are the edge uniforms the draws are checked at: 2^-53, 1-2^-53,
// every power of two, and at each exponent every table cell's lower edge,
// the uniform one ulp above it and the one one ulp below the next edge.
func expUniforms() []float64 {
	out := []float64{0x1p-53, 1 - 0x1p-53}
	for e := -53; e <= -1; e++ {
		for j := 0; j < len(logCells); j++ {
			lo := math.Ldexp(1+float64(j)/256, e)
			hi := math.Ldexp(1+float64(j+1)/256, e)
			for _, u := range []float64{lo, math.Nextafter(lo, 1), math.Nextafter(hi, 0)} {
				// Keep what a Float64 can return: a multiple of 2^-53.
				if u = math.Floor(u*(1<<53)) / (1 << 53); u > 0 && u < 1 {
					out = append(out, u)
				}
			}
		}
	}
	return out
}

// logDeviation is the deviation of the bracket's centre, the table-driven
// logarithm, from math.Log relative to math.Log.
func logDeviation(u float64) float64 {
	lo, hi := logBracket(u)
	want := math.Log(u)
	return math.Abs((lo+hi)/2-want) / math.Abs(want)
}

// TestFastLogWithinBracket requires the table logarithm to stay more than
// 100 times inside the bracket over random uniforms (10^8 without -short)
// and every edge uniform, and every bracket to contain math.Log.
func TestFastLogWithinBracket(t *testing.T) {
	n := 100_000_000
	if testing.Short() {
		n = 1_000_000
	}
	worst, at := 0.0, 0.0
	check := func(u float64) {
		if d := logDeviation(u); d > worst {
			worst, at = d, u
		}
	}
	r := NewRng(27)
	for i := 0; i < n; i++ {
		if u := r.Float64(); u != 0 {
			check(u)
		}
	}
	for _, u := range expUniforms() {
		check(u)
		lo, hi := logBracket(u)
		if l := math.Log(u); !(lo <= l && l <= hi) {
			t.Fatalf("u=%v: bracket [%v, %v] misses math.Log = %v", u, lo, hi, l)
		}
	}
	t.Logf("largest relative deviation %.3g (2^%.2f) at u=%v: %.0fx inside the bracket", worst, math.Log2(worst), at, logBracketWidth/worst)
	if worst*100 > logBracketWidth {
		t.Fatalf("the table logarithm deviates %.3g from math.Log at u=%v: less than 100x inside the 2^-40 bracket", worst, at)
	}
}

// expMeans are the means the draws are checked at: tpp-timeline's base and
// burst rates at their defaults and at the qps cap, kvstore's and dsb's
// interarrivals, and extremes, including negative and non-finite means.
var expMeans = []float64{
	1e9 / 50_000, 1e9 / 300_000, 1e9 / 200_000, 1e9 / 1_200_000,
	1e9 / 150_000, 1e9 / 90_000, 1e9 / 10_000, 1e9 / 123_457,
	1, 1e-3, 1e-300, 0x1p-1074, 1e6, 1e12, 1e15, 1e300,
	-1e9 / 50_000, 0, math.Inf(1),
}

// expJitters are dsb's service-time scales (picoseconds) with its 0.7/0.3
// split, and extremes.
var expJitters = [][3]float64{
	{1_350_000, 0.7, 0.3}, {8_700_000, 0.7, 0.3}, {25_000_000, 0.7, 0.3}, {123_456_789, 0.7, 0.3},
	{1, 0.7, 0.3}, {1e15, 0.7, 0.3}, {-5e6, 0.7, 0.3}, {3e6, 0.2, -0.9},
}

// expDrawsEqual draws n values of each form from seed through the certified
// draws and the reference and fails on the first difference.
func expDrawsEqual(t *testing.T, seed uint64, n int) {
	t.Helper()
	for _, mean := range expMeans {
		got, want := NewRng(seed), NewRng(seed)
		for i := 0; i < n; i++ {
			if g, w := got.ExpNanoseconds(mean), FromNanoseconds(want.Exp(mean)); g != w {
				t.Fatalf("seed %d mean %v draw %d: ExpNanoseconds = %d, reference %d", seed, mean, i, g, w)
			}
		}
		if got.State() != want.State() {
			t.Fatalf("seed %d mean %v: the draws consumed a different stream", seed, mean)
		}
	}
	for _, j := range expJitters {
		got, want := NewRng(seed), NewRng(seed)
		for i := 0; i < n; i++ {
			if g, w := got.ExpJitter(j[0], j[1], j[2]), Time(j[0]*(j[1]+j[2]*want.Exp(1))); g != w {
				t.Fatalf("seed %d jitter %v draw %d: ExpJitter = %d, reference %d", seed, j, i, g, w)
			}
		}
		if got.State() != want.State() {
			t.Fatalf("seed %d jitter %v: the draws consumed a different stream", seed, j)
		}
	}
}

// TestExpDrawsMatchReference compares 10^7 draws of the two forms (10^5
// with -short) with the reference, then every edge uniform at every mean.
func TestExpDrawsMatchReference(t *testing.T) {
	n := 10_000_000 / (len(expMeans) + len(expJitters))
	if testing.Short() {
		n = 100_000 / (len(expMeans) + len(expJitters))
	}
	expDrawsEqual(t, 1, n)
	for _, u := range expUniforms() {
		for _, mean := range expMeans {
			if g, w := rngBefore(u).ExpNanoseconds(mean), FromNanoseconds(rngBefore(u).Exp(mean)); g != w {
				t.Fatalf("u=%v mean %v: ExpNanoseconds = %d, reference %d", u, mean, g, w)
			}
		}
		for _, j := range expJitters {
			if g, w := rngBefore(u).ExpJitter(j[0], j[1], j[2]), Time(j[0]*(j[1]+j[2]*rngBefore(u).Exp(1))); g != w {
				t.Fatalf("u=%v jitter %v: ExpJitter = %d, reference %d", u, j, g, w)
			}
		}
	}
}

// TestExpDrawFallsBackToLog forces the exact branch: for each uniform it
// picks the mean whose rounding boundary, half a picosecond, sits at the
// draw's value, so the bracket's ends round apart. Every such draw must
// take math.Log and still equal the reference.
func TestExpDrawFallsBackToLog(t *testing.T) {
	r := NewRng(3)
	forced, fellBack := 0, 0
	for i := 0; i < 2000; i++ {
		u := r.Float64()
		if u == 0 {
			continue
		}
		// -mean·log(u)·1000 = k + 0.5 ps for a k between 1 ps and 10 ms.
		k := float64(1 + r.Int63n(int64(10*Millisecond)))
		mean := (k + 0.5) / 1000 / -math.Log(u)
		forced++
		if lo, hi := logBracket(u); expNanoseconds(mean, lo) != expNanoseconds(mean, hi) {
			fellBack++
		}
		if g, w := rngBefore(u).ExpNanoseconds(mean), FromNanoseconds(rngBefore(u).Exp(mean)); g != w {
			t.Fatalf("u=%v mean %v: ExpNanoseconds = %d, reference %d", u, mean, g, w)
		}
	}
	if fellBack != forced {
		t.Fatalf("%d of %d forced draws took math.Log, want all", fellBack, forced)
	}
}

// TestExpFallbackRate reports how often serve-cold's draws take math.Log:
// tpp-timeline's arrivals at its default rates and dsb's service times.
func TestExpFallbackRate(t *testing.T) {
	const n = 1_000_000
	r := NewRng(11)
	fell := 0
	for i := 0; i < n; i++ {
		mean := []float64{1e9 / 50_000, 1e9 / 300_000}[i&1]
		if lo, hi := logBracket(r.expUniform()); expNanoseconds(mean, lo) != expNanoseconds(mean, hi) {
			fell++
		}
	}
	for i := 0; i < n; i++ {
		if lo, hi := logBracket(r.expUniform()); expJitter(8_700_000, 0.7, 0.3, lo) != expJitter(8_700_000, 0.7, 0.3, hi) {
			fell++
		}
	}
	t.Logf("%d of %d draws took math.Log (%.1f per million)", fell, 2*n, float64(fell)/(2*n)*1e6)
	if fell > 2*n/1000 {
		t.Fatalf("%d of %d draws took math.Log: the fast path answers too few", fell, 2*n)
	}
}

// FuzzExpDrawMatchesReference compares the draws with the reference for a
// fuzzer-chosen generator state, mean and jitter, and at the uniform a
// fuzzer-chosen integer names.
func FuzzExpDrawMatchesReference(f *testing.F) {
	f.Add(uint64(1), 20_000.0, 8_700_000.0, 0.7, 0.3, uint64(1))
	f.Add(uint64(99), 1e9/1_200_000, 1.0, 0.0, 1.0, uint64(1)<<52)
	f.Add(uint64(7), -3.5, -2.0, 0.5, -0.5, uint64(1)<<53-1)
	f.Add(uint64(0), 1e15, 1e300, 1.0, 1e-300, uint64(12345))
	f.Fuzz(func(t *testing.T, seed uint64, mean, scale, base, slope float64, k uint64) {
		got, want := NewRng(seed), NewRng(seed)
		for i := 0; i < 64; i++ {
			if g, w := got.ExpNanoseconds(mean), FromNanoseconds(want.Exp(mean)); g != w {
				t.Fatalf("draw %d: ExpNanoseconds(%v) = %d, reference %d", i, mean, g, w)
			}
			if g, w := got.ExpJitter(scale, base, slope), Time(scale*(base+slope*want.Exp(1))); g != w {
				t.Fatalf("draw %d: ExpJitter(%v, %v, %v) = %d, reference %d", i, scale, base, slope, g, w)
			}
		}
		if k &= 1<<53 - 1; k == 0 {
			return
		}
		u := float64(k) / (1 << 53)
		if g, w := rngBefore(u).ExpNanoseconds(mean), FromNanoseconds(rngBefore(u).Exp(mean)); g != w {
			t.Fatalf("u=%v: ExpNanoseconds(%v) = %d, reference %d", u, mean, g, w)
		}
		if g, w := rngBefore(u).ExpJitter(scale, base, slope), Time(scale*(base+slope*rngBefore(u).Exp(1))); g != w {
			t.Fatalf("u=%v: ExpJitter(%v, %v, %v) = %d, reference %d", u, scale, base, slope, g, w)
		}
	})
}

var expSink Time

// BenchmarkExpDraw times one rounded draw of each form, certified and
// through the math.Log reference: tpp-timeline's burst-rate arrival and a
// dsb service time.
func BenchmarkExpDraw(b *testing.B) {
	const mean, svc = 1e9 / 300_000, 8_700_000.0
	b.Run("fast/nanoseconds", func(b *testing.B) {
		r := NewRng(1)
		var s Time
		for i := 0; i < b.N; i++ {
			s += r.ExpNanoseconds(mean)
		}
		expSink = s
	})
	b.Run("reference/nanoseconds", func(b *testing.B) {
		r := NewRng(1)
		var s Time
		for i := 0; i < b.N; i++ {
			s += FromNanoseconds(r.Exp(mean))
		}
		expSink = s
	})
	b.Run("fast/jitter", func(b *testing.B) {
		r := NewRng(1)
		var s Time
		for i := 0; i < b.N; i++ {
			s += r.ExpJitter(svc, 0.7, 0.3)
		}
		expSink = s
	})
	b.Run("reference/jitter", func(b *testing.B) {
		r := NewRng(1)
		var s Time
		for i := 0; i < b.N; i++ {
			s += Time(svc * (0.7 + 0.3*r.Exp(1)))
		}
		expSink = s
	})
}
