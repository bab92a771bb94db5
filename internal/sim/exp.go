package sim

import "math"

// Certified exponential draws (DESIGN.md §27). An exponential variate is
// -mean·math.Log(u) for a uniform u, and the models round it straight to a
// Time. math.Log is the costliest step of the event models' arrival loops,
// yet almost every draw's rounded result is already fixed by a cheaper,
// slightly less accurate logarithm. So a draw computes a table-driven
// logarithm of u and an interval [lo, hi] around it that provably contains
// math.Log(u), then evaluates the caller's rounding expression at both ends.
// The expression is monotone in the logarithm, so equal ends are its exact
// value at math.Log(u); only a draw whose ends differ calls math.Log. Each
// rounding expression below is one function, shared by both ends and the
// fallback, and each draw consumes the uniforms Exp(mean) =
// -mean·math.Log(u) would: one Float64, redrawn while it is 0.

// logBracketWidth is the bracket's half-width relative to the table-driven
// logarithm. It is more than 100 times that logarithm's largest deviation
// from math.Log.
const logBracketWidth = 0x1p-40

// logCell is one cell of the logarithm's table. A mantissa m in the cell
// is reduced to q = (m - c)·inv, and log(m) - halving·ln 2 =
// logc + log1p(q).
type logCell struct {
	c, inv, logc float64
}

// logCells holds the 256 cells [1 + j/256, 1 + (j+1)/256) of the mantissa
// range [1, 2). Cell j reduces around its midpoint, except the last, which
// reduces around 2 so that a uniform just below 1 keeps its relative
// accuracy (its log is log1p(q) alone, with no cancellation). The upper
// half (j >= 128) stores log(c/2) and counts the halving into the
// exponent, so every uniform in [0.75, 1) takes exponent 0.
var logCells = func() (t [256]logCell) {
	for j := range t {
		c := 1 + float64(2*j+1)/512
		if j == len(t)-1 {
			c = 2
		}
		logc := math.Log(c)
		if j >= 128 {
			logc = math.Log(c / 2)
		}
		t[j] = logCell{c: c, inv: 1 / c, logc: logc}
	}
	return t
}()

// negLn2[k] is -k·ln 2, the logarithm of 2^-k, for every exponent -k a
// nonzero Float64 can carry.
var negLn2 = func() (t [64]float64) {
	for k := range t {
		t[k] = -float64(k) * math.Ln2
	}
	return t
}()

// logBracket returns an interval [lo, hi] that contains math.Log(u), for u
// in [2^-53, 1), the range of a nonzero Float64. Its centre approximates
// math.Log(u) to within 2^-47 relative (DESIGN.md §27): write u = m·2^e with
// m in [1, 2); the top eight bits of m pick a cell, and log1p(q) is its
// degree-5 Taylor polynomial (|q| <= 2^-9).
func logBracket(u float64) (lo, hi float64) {
	b := math.Float64bits(u)
	j := b >> 44 & 0xff
	cell := &logCells[j]
	m := math.Float64frombits(b&(1<<52-1) | 1023<<52)
	q := (m - cell.c) * cell.inv
	q2 := q * q
	p := q + q2*((-0.5+q*(1.0/3))+q2*(-0.25+q*0.2))
	// -k = 1023 - biased exponent - halving, in [0, 53].
	l := negLn2[(1023-b>>52-j>>7)&63] + (cell.logc + p)
	d := l * logBracketWidth
	return l + d, l - d
}

// expUniform draws the uniform an exponential draw reads: the next Float64,
// redrawn while it is 0.
func (r *Rng) expUniform() float64 {
	for {
		if u := r.Float64(); u != 0 {
			return u
		}
	}
}

// ExpNanoseconds draws an exponential interval of the given mean in
// nanoseconds, rounded to the nearest picosecond: FromNanoseconds(-mean ·
// math.Log(u)), bit for bit, from the uniforms an exponential draw reads.
func (r *Rng) ExpNanoseconds(mean float64) Time {
	u := r.expUniform()
	lo, hi := logBracket(u)
	if t := expNanoseconds(mean, lo); t == expNanoseconds(mean, hi) {
		return t
	}
	return expNanoseconds(mean, math.Log(u))
}

// expNanoseconds is ExpNanoseconds' rounding of a logarithm.
func expNanoseconds(mean, logU float64) Time {
	return FromNanoseconds(-mean * logU)
}

// ExpJitter draws scale·(base + slope·x) for an exponential x of mean 1,
// truncated to a Time: Time(scale·(base + slope·(-math.Log(u)))), bit for
// bit, from the uniforms an exponential draw reads. A service time with an
// exponential tail on a share of its work is ExpJitter(svc, 1-share, share).
func (r *Rng) ExpJitter(scale, base, slope float64) Time {
	u := r.expUniform()
	lo, hi := logBracket(u)
	if t := expJitter(scale, base, slope, lo); t == expJitter(scale, base, slope, hi) {
		return t
	}
	return expJitter(scale, base, slope, math.Log(u))
}

// expJitter is ExpJitter's rounding of a logarithm.
func expJitter(scale, base, slope, logU float64) Time {
	return Time(scale * (base + slope*-logU))
}
