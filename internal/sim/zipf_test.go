package sim

import (
	"math"
	"testing"
)

// refZipf is the sampler before its lookup table, kept verbatim as the
// reference: every draw inverts h with math.Pow.
type refZipf struct {
	rng              *Rng
	n                float64
	s                float64
	oneMinusS        float64
	oneOverOneMinusS float64
	hx0              float64
	hxm              float64
	hDenom           float64
}

func newRefZipf(rng *Rng, n int, s float64) *refZipf {
	if s == 1 {
		s = 1.0000001
	}
	z := &refZipf{rng: rng, n: float64(n), s: s}
	z.oneMinusS = 1 - s
	z.oneOverOneMinusS = 1 / z.oneMinusS
	z.hx0 = z.h(0.5) - 1
	z.hxm = z.h(z.n + 0.5)
	z.hDenom = z.hx0 - z.hxm
	return z
}

func (z *refZipf) h(x float64) float64 {
	return math.Pow(x, z.oneMinusS) * z.oneOverOneMinusS
}

func (z *refZipf) hInv(x float64) float64 {
	return math.Pow(x*z.oneMinusS, z.oneOverOneMinusS)
}

// draw is one iteration of the reference's rejection loop for the uniform u.
func (z *refZipf) draw(u float64) (int, bool) {
	x := z.hInv(u)
	k := math.Floor(x + 0.5)
	if k < 1 {
		k = 1
	}
	if k > z.n {
		k = z.n
	}
	if k-x <= 0.5 || z.h(k+0.5)-math.Pow(k, -z.s) >= u {
		return int(k) - 1, true
	}
	return 0, false
}

// Next is the reference's Next; onDraw, when set, sees every uniform drawn.
func (z *refZipf) Next(onDraw func(u float64)) int {
	for {
		u := z.hx0 - z.rng.Float64()*z.hDenom
		if onDraw != nil {
			onDraw(u)
		}
		if k, ok := z.draw(u); ok {
			return k
		}
	}
}

// zipfCorners counts the kinds of uniform a comparison reached.
type zipfCorners struct {
	table     int // answered from a bucket of the table
	below     int // answered below bounds[0], where k clamps to 1
	beyond    int // past the table's last bound (n > zipfTableMax)
	near      int // within the margin of a bound
	nonPos    int // u*(1-s) <= 0, which the reference rejects as NaN
	rejected  int // a uniform the reference rejected
	nudged    bool
	bigN      bool
	smallSkew bool
}

// classify records which path z's lookup takes for u.
func (c *zipfCorners) classify(z *Zipf, u float64) {
	if u*z.oneMinusS <= 0 {
		c.nonPos++
	}
	if _, ok := z.lookup(u); ok {
		if u < z.bounds[0] {
			c.below++
		} else {
			c.table++
		}
		return
	}
	b := z.bounds
	if len(b) == 0 {
		return
	}
	switch {
	case u >= b[len(b)-1]:
		c.beyond++
	case u*z.oneMinusS > 0:
		c.near++
	}
}

// compareZipf draws count values from a fresh sampler and the reference on
// equal seeds and requires equal values and equal final generator states.
func compareZipf(t *testing.T, seed uint64, n int, s float64, count int, c *zipfCorners) {
	t.Helper()
	rz, rr := NewRng(seed), NewRng(seed)
	z, ref := NewZipf(rz, n, s), newRefZipf(rr, n, s)
	for i := 0; i < count; i++ {
		want := ref.Next(func(u float64) {
			if c != nil && len(z.bounds) > 0 {
				c.classify(z, u)
				if _, ok := ref.draw(u); !ok {
					c.rejected++
				}
			}
		})
		if got := z.Next(); got != want {
			t.Fatalf("n=%d s=%v seed=%d draw %d: got %d, want %d", n, s, seed, i, got, want)
		}
	}
	if rz.State() != rr.State() {
		t.Fatalf("n=%d s=%v seed=%d: final generator state %#x, want %#x", n, s, seed, rz.State(), rr.State())
	}
	if c != nil {
		c.nudged = c.nudged || z.s != s
		c.bigN = c.bigN || n > zipfTableMax
		c.smallSkew = c.smallSkew || z.hx0 < 0
	}
}

// compareZipfAt checks draw against the reference for uniforms at, and a few
// ulps and margins either side of, every table bound.
func compareZipfAt(t *testing.T, n int, s float64) {
	t.Helper()
	z, ref := NewZipf(NewRng(1), n, s), newRefZipf(NewRng(1), n, s)
	z.buildTable()
	check := func(u float64) {
		if !(u >= z.hx0 && u < z.hxm) {
			return
		}
		gk, gok := z.draw(u)
		wk, wok := ref.draw(u)
		if gok != wok || (gok && gk != wk) {
			t.Fatalf("n=%d s=%v u=%v: draw (%d, %v), want (%d, %v)", n, s, u, gk, gok, wk, wok)
		}
	}
	for _, b := range z.bounds {
		check(b)
		for _, dir := range []float64{math.Inf(1), math.Inf(-1)} {
			u := b
			for i := 0; i < 3; i++ {
				u = math.Nextafter(u, dir)
				check(u)
			}
		}
		for _, m := range []float64{0.5, 0.999, 1, 1.001, 2} {
			check(b + m*zipfMargin*math.Abs(b))
			check(b - m*zipfMargin*math.Abs(b))
		}
	}
	check(0)
	check(math.Nextafter(0, 1))
	check(math.Nextafter(0, -1))
	check(z.accept1)
	check(z.hx0)
}

// zipfSkews spans the skews the reference must agree on: below ~0.36 the
// first uniforms are <= 0, 1 takes the nudge, and above 1 h is negative.
var zipfSkews = []float64{0.2, 0.25, 0.35, 0.5, 0.6, 0.75, 0.9, 0.99, 1, 1.1, 1.5, 2, 3}

// TestZipfMatchesReference: the table-driven sampler draws the reference's
// sequence, and leaves its generator in the reference's state, across
// n from 1 to past the table and skews from 0.2 to 3, and the generator
// reaches every corner of the lookup.
func TestZipfMatchesReference(t *testing.T) {
	var c zipfCorners
	ns := []int{1, 2, 3, 7, 64, 1000, 2048, 4095, 4096, 4097, 8192, 100_000}
	count := zipfTableAfter + 6000
	if testing.Short() {
		count = zipfTableAfter + 1000
	}
	for i, n := range ns {
		for j, s := range zipfSkews {
			compareZipf(t, uint64(1+i*len(zipfSkews)+j), n, s, count, &c)
		}
	}
	if c.table == 0 || c.below == 0 || c.beyond == 0 || c.near == 0 || c.nonPos == 0 || c.rejected == 0 ||
		!c.nudged || !c.bigN || !c.smallSkew {
		t.Fatalf("the generator missed a corner: %+v", c)
	}
	t.Logf("corners: %+v", c)
}

// TestZipfAtBounds: uniforms exactly at, one to three ulps beside, and at
// fractions of the margin around every table bound map as the reference maps
// them.
func TestZipfAtBounds(t *testing.T) {
	for _, n := range []int{1, 2, 17, 4096, 5000} {
		for _, s := range zipfSkews {
			compareZipfAt(t, n, s)
		}
	}
}

// TestZipfTableIsBounded: the table is built after zipfTableAfter draws,
// never before, and holds at most zipfTableMax buckets.
func TestZipfTableIsBounded(t *testing.T) {
	z := NewZipf(NewRng(3), 1_000_000, 0.99)
	for i := 0; i < zipfTableAfter-1; i++ {
		z.Next()
	}
	if z.bounds != nil {
		t.Fatal("the table was built before zipfTableAfter draws")
	}
	z.Next()
	if len(z.bounds) != zipfTableMax+1 || len(z.guide) != zipfGuideCells*zipfTableMax {
		t.Fatalf("table holds %d bounds and %d guide cells, want %d and %d",
			len(z.bounds), len(z.guide), zipfTableMax+1, zipfGuideCells*zipfTableMax)
	}
}

// FuzzZipfMatchesReference compares fuzzer-chosen samplers with the
// reference: n up to past the table, skews in (0, 3], and a uniform placed
// near a fuzzer-chosen bound.
func FuzzZipfMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint16(2048), uint16(990), uint16(5), int8(0))
	f.Add(uint64(2), uint16(1), uint16(200), uint16(0), int8(-1))
	f.Add(uint64(3), uint16(5000), uint16(1000), uint16(4095), int8(1))
	f.Add(uint64(4), uint16(100), uint16(3000), uint16(99), int8(3))
	f.Fuzz(func(t *testing.T, seed uint64, n, milliSkew, bound uint16, ulps int8) {
		nn := int(n%10000) + 1
		s := float64(milliSkew%3000+1) / 1000
		compareZipf(t, seed, nn, s, zipfTableAfter+200, nil)

		z, ref := NewZipf(NewRng(seed), nn, s), newRefZipf(NewRng(seed), nn, s)
		z.buildTable()
		if len(z.bounds) == 0 {
			return
		}
		u := z.bounds[int(bound)%len(z.bounds)]
		dir := math.Inf(1)
		if ulps < 0 {
			dir = math.Inf(-1)
		}
		for i := 0; i < int(ulps%8)*int(ulps%8); i++ {
			u = math.Nextafter(u, dir)
		}
		if !(u >= z.hx0 && u < z.hxm) {
			return
		}
		gk, gok := z.draw(u)
		wk, wok := ref.draw(u)
		if gok != wok || (gok && gk != wk) {
			t.Fatalf("n=%d s=%v u=%v: draw (%d, %v), want (%d, %v)", nn, s, u, gk, gok, wk, wok)
		}
	})
}
