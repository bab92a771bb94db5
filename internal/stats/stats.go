// Package stats implements the statistical primitives used throughout the
// cxlmem reproduction: percentiles for tail-latency experiments, Pearson
// correlation and multiple linear regression for the Caption estimator
// (paper §6, Eq. 1), and the moving average of the telemetry sampler.
//
// Beyond the Go standard library it uses only internal/sim, whose latency
// samples it takes percentiles of.
package stats

import (
	"fmt"
	"math"
	"sort"

	"cxlmem/internal/sim"
)

// Percentile returns the p-th percentile (p in [0, 100]) of values using
// linear interpolation between closest ranks (the "linear" method used by
// numpy and most benchmarking tools). It does not modify values.
// Percentile panics if values is empty or p is out of range.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		panic("stats: Percentile of empty slice")
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of range [0,100]", p))
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

// PercentileSorted is Percentile for an already ascending-sorted slice,
// avoiding the copy and sort. The caller must guarantee the ordering.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		panic("stats: PercentileSorted of empty slice")
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of range [0,100]", p))
	}
	return percentileSorted(sorted, p)
}

// PercentilesNanoseconds returns the percentiles ps, which must ascend, of
// the latencies lats in nanoseconds: for each p, PercentileSorted of their
// ascending Time.Nanoseconds(), bit for bit, without the sort. It selects
// just the order statistics the percentiles interpolate between
// (sim.OrderStats) and reorders lats. PercentilesNanoseconds panics if lats
// is empty or a p is out of range or out of order.
func PercentilesNanoseconds(lats []sim.Time, ps ...float64) []float64 {
	if len(lats) == 0 {
		panic("stats: PercentilesNanoseconds of empty slice")
	}
	ranks := make([]int, 0, 2*len(ps))
	fracs := make([]float64, len(ps))
	for i, p := range ps {
		if p < 0 || p > 100 {
			panic(fmt.Sprintf("stats: percentile %v out of range [0,100]", p))
		}
		if i > 0 && p < ps[i-1] {
			panic(fmt.Sprintf("stats: percentiles %v out of order", ps))
		}
		var lo, hi int
		lo, hi, fracs[i] = percentileRanks(len(lats), p)
		ranks = append(ranks, lo, hi)
	}
	v := make([]sim.Time, len(ranks))
	sim.OrderStats(lats, ranks, v)
	out := make([]float64, len(ps))
	for i, frac := range fracs {
		out[i] = interpolate(v[2*i].Nanoseconds(), v[2*i+1].Nanoseconds(), frac)
	}
	return out
}

func percentileSorted(sorted []float64, p float64) float64 {
	lo, hi, frac := percentileRanks(len(sorted), p)
	return interpolate(sorted[lo], sorted[hi], frac)
}

// percentileRanks returns the ranks lo <= hi of the two order statistics
// the p-th percentile of n ascending values interpolates between, and the
// weight of the upper one: 0 exactly when lo == hi.
func percentileRanks(n int, p float64) (lo, hi int, frac float64) {
	rank := p / 100 * float64(n-1)
	lo, hi = int(math.Floor(rank)), int(math.Ceil(rank))
	return lo, hi, rank - float64(lo)
}

// interpolate blends the order statistics a (rank lo) and b (rank hi) with
// the weight percentileRanks returned.
func interpolate(a, b, frac float64) float64 {
	if frac == 0 {
		return a
	}
	return a*(1-frac) + b*frac
}

// Mean returns the arithmetic mean; it panics on an empty slice.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		panic("stats: Mean of empty slice")
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// GeoMean returns the geometric mean of strictly positive values. The paper
// uses a geometric mean to combine Redis and DLRM throughput into one number
// (§6.2). It panics on an empty slice or non-positive input.
func GeoMean(values []float64) float64 {
	if len(values) == 0 {
		panic("stats: GeoMean of empty slice")
	}
	sumLog := 0.0
	for _, v := range values {
		if v <= 0 {
			panic("stats: GeoMean of non-positive value")
		}
		sumLog += math.Log(v)
	}
	return math.Exp(sumLog / float64(len(values)))
}

// Pearson returns the Pearson correlation coefficient between x and y.
// The paper uses it to quantify synchrony between the Caption estimator's
// output and the measured throughput time series (§6.2, Fig. 12).
// It returns 0 when either series has zero variance, and panics when the
// series lengths differ or are empty.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("stats: Pearson length mismatch")
	}
	if len(x) == 0 {
		panic("stats: Pearson of empty series")
	}
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// MovingAverage keeps the mean of the most recent Window observations.
// Caption feeds each counter through a 5-sample moving average before the
// estimator (paper §6.1, M2).
type MovingAverage struct {
	window int
	buf    []float64
	next   int
	filled bool
	sum    float64
}

// NewMovingAverage creates a window of the given size (must be positive).
func NewMovingAverage(window int) *MovingAverage {
	if window <= 0 {
		panic("stats: non-positive moving average window")
	}
	return &MovingAverage{window: window, buf: make([]float64, window)}
}

// Add inserts an observation and returns the current average.
func (m *MovingAverage) Add(x float64) float64 {
	if m.filled {
		m.sum -= m.buf[m.next]
	}
	m.buf[m.next] = x
	m.sum += x
	m.next++
	if m.next == m.window {
		m.next = 0
		m.filled = true
	}
	return m.Value()
}

// Value returns the mean of the observations currently in the window; 0 when
// no observations have been added.
func (m *MovingAverage) Value() float64 {
	n := m.window
	if !m.filled {
		n = m.next
	}
	if n == 0 {
		return 0
	}
	return m.sum / float64(n)
}
