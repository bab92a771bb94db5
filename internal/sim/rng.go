package sim

import "math"

// Rng is a small, fast, deterministic pseudo-random number generator based on
// SplitMix64. It is not safe for concurrent use; simulations that need
// parallel streams should derive one Rng per goroutine with Split.
//
// SplitMix64 passes BigCrush, has a 2^64 period, and — critically for this
// project — is trivially reproducible across Go versions, unlike math/rand's
// unspecified global source.
type Rng struct {
	state uint64
}

// NewRng returns a generator seeded with seed. Two generators with the same
// seed produce identical streams.
func NewRng(seed uint64) *Rng {
	return &Rng{state: seed}
}

// Split derives an independent generator from r's stream. The derived stream
// is decorrelated from the parent by the SplitMix64 output function.
func (r *Rng) Split() *Rng {
	return NewRng(r.Uint64() ^ 0x9e3779b97f4a7c15)
}

// Uint64 returns the next value in the stream.
func (r *Rng) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// State returns the generator's internal state, for checkpointing: NewRng of
// a saved State resumes the stream exactly where it left off (NewRng seeds
// the state directly). The warm-state snapshot cache (internal/mlc) relies
// on this to restore a measurement loop mid-stream.
func (r *Rng) State() uint64 { return r.state }

// Intn returns a uniform value in [0, n). It panics if n <= 0.
// Power-of-two bounds take a mask fast path; u % n == u & (n-1) for those n,
// so the value stream is identical — the mask just skips the hardware divide
// in the address-generation hot loops, whose bounds (line counts of
// power-of-two buffers) are almost always powers of two.
func (r *Rng) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive bound")
	}
	if n&(n-1) == 0 {
		return int(r.Uint64() & uint64(n-1))
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform value in [0, n). It panics if n <= 0.
// Power-of-two bounds take the same mask fast path as Intn.
func (r *Rng) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive bound")
	}
	if n&(n-1) == 0 {
		return int64(r.Uint64() & uint64(n-1))
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *Rng) Float64() float64 {
	// 53 high bits -> uniform double in [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Exp returns an exponentially distributed value with the given mean.
// Used for open-loop (Poisson) arrival processes in the latency benchmarks.
func (r *Rng) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Perm returns a random permutation of [0, n) using Fisher–Yates.
func (r *Rng) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Zipf draws from a bounded zipfian distribution over [0, n) with skew s > 0
// using rejection-inversion (Hörmann). A Zipf value is created once and
// reused; each draw is O(1) expected. A draw inverts h with math.Pow until
// the sampler has made zipfTableAfter draws; it then builds a table of its
// first min(n, zipfTableMax) bucket boundaries once and looks most draws up
// there, falling back to math.Pow for the rest (DESIGN.md §18). Both paths
// return the same value for the same uniform, so the stream is unchanged.
type Zipf struct {
	rng              *Rng
	n                float64
	s                float64
	oneMinusS        float64
	oneOverOneMinusS float64
	hx0              float64
	hxm              float64
	hDenom           float64
	// accept1 is the k = 1 acceptance bound h(1.5) - 1^-s; 1^-s is exactly 1.
	accept1 float64
	// untilTable counts the draws left before the table is built.
	untilTable int
	// bounds[j] = h(j + 0.5): a uniform strictly between bounds[j] and
	// bounds[j+1] draws j. Empty until the table is built.
	bounds []float64
	// guide[c] is a bucket at or below every uniform in cell c of an
	// equal-width grid over [bounds[0], bounds[len-1]], zipfGuideCells cells
	// per bucket; guideScale maps a uniform's distance from bounds[0] to its
	// cell.
	guide      []uint16
	guideScale float64
}

const (
	// zipfTableMax bounds the lookup table's bucket count.
	zipfTableMax = 4096
	// zipfTableAfter is how many draws a sampler makes before it builds its
	// table, so a short-lived sampler never pays for one.
	zipfTableAfter = 4096
	// zipfMargin is the relative distance a uniform must keep from a bucket
	// boundary for the table to answer it; closer draws take math.Pow.
	zipfMargin = 1e-9
	// zipfGuideCells is how many guide cells the table holds per bucket:
	// enough that the scan from a cell's first bucket rarely moves.
	zipfGuideCells = 4
)

// NewZipf builds a zipfian sampler over {0, 1, ..., n-1} with exponent s.
// s must be > 0 and != 1 is handled exactly; s == 1 is nudged slightly to
// keep the closed forms finite (standard practice). Construction is O(1),
// but not the sampler's setup as a whole: its zipfTableAfter-th draw builds
// the lookup table, O(min(n, zipfTableMax)) math.Pow calls and 64 KiB at
// most.
func NewZipf(rng *Rng, n int, s float64) *Zipf {
	if n <= 0 {
		panic("sim: Zipf with non-positive n")
	}
	if s <= 0 {
		panic("sim: Zipf with non-positive skew")
	}
	if s == 1 {
		s = 1.0000001
	}
	z := &Zipf{rng: rng, n: float64(n), s: s, untilTable: zipfTableAfter}
	z.oneMinusS = 1 - s
	z.oneOverOneMinusS = 1 / z.oneMinusS
	z.hx0 = z.h(0.5) - 1
	z.hxm = z.h(z.n + 0.5)
	z.hDenom = z.hx0 - z.hxm
	z.accept1 = z.h(1.5) - 1
	return z
}

// h is the integral of the zipf density, used by rejection-inversion.
func (z *Zipf) h(x float64) float64 {
	return math.Pow(x, z.oneMinusS) * z.oneOverOneMinusS
}

func (z *Zipf) hInv(x float64) float64 {
	return math.Pow(x*z.oneMinusS, z.oneOverOneMinusS)
}

// Next draws the next zipfian value in [0, n).
func (z *Zipf) Next() int {
	if z.untilTable > 0 {
		if z.untilTable--; z.untilTable == 0 {
			z.buildTable()
		}
	}
	for {
		if k, ok := z.draw(z.hx0 - z.rng.Float64()*z.hDenom); ok {
			return k
		}
	}
}

// draw maps one uniform u in [hx0, hxm) to a value, or rejects it. The table
// answers when it can; otherwise u is inverted with math.Pow.
func (z *Zipf) draw(u float64) (int, bool) {
	if k, ok := z.lookup(u); ok {
		return k, true
	}
	x := z.hInv(u)
	k := math.Floor(x + 0.5)
	if k < 1 {
		k = 1
	}
	if k > z.n {
		k = z.n
	}
	// Acceptance test (simplified Hörmann; exact for s>0 over bounded n).
	if k-x <= 0.5 {
		return int(k) - 1, true
	}
	accept := z.accept1
	if k != 1 {
		accept = z.h(k+0.5) - math.Pow(k, -z.s)
	}
	return int(k) - 1, accept >= u
}

// lookup answers u from the table when u lies more than a relative
// zipfMargin inside one bucket, or below bounds[0] where the inversion
// clamps to k = 1 (DESIGN.md §18 argues why the math.Pow path agrees).
// It reports false for every other u: before the table exists, near a
// boundary, beyond the table, and where u*(1-s) <= 0.
func (z *Zipf) lookup(u float64) (int, bool) {
	b := z.bounds
	if len(b) == 0 {
		return 0, false
	}
	d := zipfMargin * math.Abs(u)
	if u+d < b[0] {
		return 0, u*z.oneMinusS > 0 && z.accept1 >= u
	}
	last := len(b) - 1
	if !(u-d > b[0] && u+d < b[last]) {
		return 0, false
	}
	j := int(z.guide[min(int((u-b[0])*z.guideScale), len(z.guide)-1)])
	for u >= b[j+1] {
		j++
	}
	return j, u-d > b[j] && u+d < b[j+1]
}

// buildTable fills bounds with h(j + 0.5) for the first buckets, stopping
// early where h leaves the normal, strictly increasing range (huge skews
// underflow), and builds the guide over them.
func (z *Zipf) buildTable() {
	m := int(min(z.n, zipfTableMax))
	b := make([]float64, 0, m+1)
	for j := 0; j <= m; j++ {
		v := z.h(float64(j) + 0.5)
		if math.IsInf(v, 0) || !(math.Abs(v) >= 0x1p-1022) || (j > 0 && !(v > b[j-1])) {
			break
		}
		b = append(b, v)
	}
	buckets := len(b) - 1
	if buckets < 1 {
		return
	}
	cells := zipfGuideCells * buckets
	scale := float64(cells) / (b[buckets] - b[0])
	if math.IsInf(scale, 0) || !(scale > 0) {
		return
	}
	guide := make([]uint16, cells)
	j := 0
	for c := range guide {
		for j+1 < buckets && int((b[j+1]-b[0])*scale) < c {
			j++
		}
		guide[c] = uint16(j)
	}
	z.bounds, z.guide, z.guideScale = b, guide, scale
}
