package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"cxlmem/internal/sim"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPercentileBasics(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {100, 10}, {50, 5.5}, {25, 3.25}, {90, 9.1},
	}
	for _, c := range cases {
		if got := Percentile(vals, c.p); !almost(got, c.want, 1e-9) {
			t.Errorf("Percentile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileSingle(t *testing.T) {
	if got := Percentile([]float64{42}, 99); got != 42 {
		t.Errorf("single-element percentile = %v", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	vals := []float64{3, 1, 2}
	Percentile(vals, 50)
	if vals[0] != 3 || vals[1] != 1 || vals[2] != 2 {
		t.Errorf("Percentile mutated input: %v", vals)
	}
}

func TestPercentileSortedAgrees(t *testing.T) {
	r := sim.NewRng(5)
	vals := make([]float64, 500)
	for i := range vals {
		vals[i] = r.Float64() * 1000
	}
	sorted := make([]float64, len(vals))
	copy(sorted, vals)
	sort.Float64s(sorted)
	for _, p := range []float64{0, 10, 50, 90, 99, 100} {
		if a, b := Percentile(vals, p), PercentileSorted(sorted, p); a != b {
			t.Errorf("p=%v: Percentile=%v PercentileSorted=%v", p, a, b)
		}
	}
}

func TestPercentilePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty":    func() { Percentile(nil, 50) },
		"negative": func() { Percentile([]float64{1}, -1) },
		"over100":  func() { Percentile([]float64{1}, 101) },
		"ns-empty": func() { PercentilesNanoseconds(nil, 50) },
		"ns-over":  func() { PercentilesNanoseconds([]sim.Time{1}, 101) },
		"ns-order": func() { PercentilesNanoseconds([]sim.Time{1}, 99, 50) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	r := sim.NewRng(6)
	f := func(seed uint32) bool {
		rr := sim.NewRng(uint64(seed))
		n := rr.Intn(100) + 2
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = r.Float64() * 100
		}
		// Percentile must be monotone non-decreasing in p and bounded by
		// min/max of the sample.
		prev := math.Inf(-1)
		lo, hi := vals[0], vals[0]
		for _, v := range vals {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		for p := 0.0; p <= 100; p += 7 {
			cur := Percentile(vals, p)
			if cur < prev || cur < lo-1e-9 || cur > hi+1e-9 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanAndGeoMean(t *testing.T) {
	if got := Mean([]float64{2, 4, 6}); got != 4 {
		t.Errorf("Mean = %v", got)
	}
	if got := GeoMean([]float64{1, 100}); !almost(got, 10, 1e-9) {
		t.Errorf("GeoMean = %v, want 10", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("GeoMean with non-positive value should panic")
		}
	}()
	GeoMean([]float64{1, 0})
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	if got := Pearson(x, y); !almost(got, 1, 1e-12) {
		t.Errorf("Pearson = %v, want 1", got)
	}
	yNeg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(x, yNeg); !almost(got, -1, 1e-12) {
		t.Errorf("Pearson = %v, want -1", got)
	}
}

func TestPearsonZeroVariance(t *testing.T) {
	if got := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); got != 0 {
		t.Errorf("Pearson with constant series = %v, want 0", got)
	}
}

func TestPearsonRangeProperty(t *testing.T) {
	f := func(seed uint32) bool {
		r := sim.NewRng(uint64(seed) + 1)
		n := r.Intn(50) + 3
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = r.Float64()
			y[i] = r.Float64()
		}
		p := Pearson(x, y)
		return p >= -1-1e-9 && p <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPearsonPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch should panic")
		}
	}()
	Pearson([]float64{1}, []float64{1, 2})
}

func TestMovingAverage(t *testing.T) {
	m := NewMovingAverage(3)
	if m.Value() != 0 {
		t.Error("empty moving average should be 0")
	}
	if got := m.Add(3); got != 3 {
		t.Errorf("after [3]: %v", got)
	}
	if got := m.Add(6); got != 4.5 {
		t.Errorf("after [3 6]: %v", got)
	}
	if got := m.Add(9); got != 6 {
		t.Errorf("after [3 6 9]: %v", got)
	}
	if got := m.Add(12); got != 9 { // window slides: [6 9 12]
		t.Errorf("after slide: %v, want 9", got)
	}
}

func TestMovingAverageWindowOne(t *testing.T) {
	m := NewMovingAverage(1)
	m.Add(5)
	if got := m.Add(7); got != 7 {
		t.Errorf("window-1 average = %v, want 7", got)
	}
}

func TestMovingAveragePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMovingAverage(0) should panic")
		}
	}()
	NewMovingAverage(0)
}

func TestFitLinearRecoversKnownModel(t *testing.T) {
	// Y = 3 + 2*x1 - 0.5*x2, no noise: fit must recover exactly.
	r := sim.NewRng(101)
	var rows [][]float64
	var y []float64
	for i := 0; i < 50; i++ {
		x1 := r.Float64() * 10
		x2 := r.Float64() * 100
		rows = append(rows, []float64{x1, x2})
		y = append(y, 3+2*x1-0.5*x2)
	}
	m, err := FitLinear(rows, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(m.Intercept, 3, 1e-6) {
		t.Errorf("intercept = %v, want 3", m.Intercept)
	}
	if !almost(m.Coefficients[0], 2, 1e-6) || !almost(m.Coefficients[1], -0.5, 1e-6) {
		t.Errorf("coefficients = %v", m.Coefficients)
	}
	if r2 := rSquared(m, rows, y); !almost(r2, 1, 1e-9) {
		t.Errorf("R2 = %v, want 1", r2)
	}
}

func TestFitLinearNoisy(t *testing.T) {
	r := sim.NewRng(103)
	var rows [][]float64
	var y []float64
	for i := 0; i < 500; i++ {
		x := r.Float64() * 10
		rows = append(rows, []float64{x})
		y = append(y, 1+4*x+normal(r, 0, 0.1))
	}
	m, err := FitLinear(rows, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(m.Coefficients[0], 4, 0.05) {
		t.Errorf("slope = %v, want ~4", m.Coefficients[0])
	}
	if r2 := rSquared(m, rows, y); r2 < 0.99 {
		t.Errorf("R2 = %v, want > 0.99", r2)
	}
}

func TestFitLinearSingular(t *testing.T) {
	// Constant feature makes the system singular.
	rows := [][]float64{{1}, {1}, {1}}
	y := []float64{1, 2, 3}
	if _, err := FitLinear(rows, y); err == nil {
		t.Error("expected singular error for constant feature")
	}
}

func TestFitLinearValidation(t *testing.T) {
	if _, err := FitLinear(nil, nil); err == nil {
		t.Error("empty fit should error")
	}
	if _, err := FitLinear([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("underdetermined fit should error")
	}
	if _, err := FitLinear([][]float64{{1, 2}, {1}}, []float64{1, 2}); err == nil {
		t.Error("ragged rows should error")
	}
	if _, err := FitLinear([][]float64{{}, {}}, []float64{1, 2}); err == nil {
		t.Error("zero features should error")
	}
}

func TestPredictPanicsOnArity(t *testing.T) {
	m := &LinearModel{Intercept: 1, Coefficients: []float64{2}}
	defer func() {
		if recover() == nil {
			t.Error("Predict with wrong arity should panic")
		}
	}()
	m.Predict([]float64{1, 2})
}

func TestFitLinearPredictConsistencyProperty(t *testing.T) {
	// Property: for data generated by any linear model, the fit predicts the
	// training responses (noise-free => exactly, within tolerance).
	f := func(seed uint32) bool {
		r := sim.NewRng(uint64(seed) + 7)
		b0 := r.Float64()*10 - 5
		b1 := r.Float64()*10 - 5
		b2 := r.Float64()*10 - 5
		var rows [][]float64
		var y []float64
		for i := 0; i < 30; i++ {
			x1, x2 := r.Float64()*10, r.Float64()*10
			rows = append(rows, []float64{x1, x2})
			y = append(y, b0+b1*x1+b2*x2)
		}
		m, err := FitLinear(rows, y)
		if err != nil {
			return false
		}
		for i, row := range rows {
			if !almost(m.Predict(row), y[i], 1e-5) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// rSquared returns the coefficient of determination of the model over the
// given data, the fit-quality check of the regression tests.
func rSquared(m *LinearModel, rows [][]float64, y []float64) float64 {
	mean := Mean(y)
	var ssRes, ssTot float64
	for i, row := range rows {
		d := y[i] - m.Predict(row)
		ssRes += d * d
		t := y[i] - mean
		ssTot += t * t
	}
	return 1 - ssRes/ssTot
}

// normal draws a normally distributed value from r via the Box–Muller
// transform, the noise of the noisy-fit test.
func normal(r *sim.Rng, mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// checkPercentilesNanoseconds requires PercentilesNanoseconds to equal
// PercentileSorted over the sorted nanosecond latencies, bit for bit, at
// every p of ps.
func checkPercentilesNanoseconds(t *testing.T, lats []sim.Time, ps ...float64) {
	t.Helper()
	var sorter sim.TimeSorter
	sorted := sorter.SortedNanoseconds(nil, append([]sim.Time(nil), lats...))
	got := PercentilesNanoseconds(append([]sim.Time(nil), lats...), ps...)
	for i, p := range ps {
		if want := PercentileSorted(sorted, p); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("n=%d p=%v: PercentilesNanoseconds = %v, PercentileSorted = %v", len(lats), p, got[i], want)
		}
	}
}

// TestPercentilesNanosecondsMatchesSort covers n = 1, 2, around the
// insertion cut-over and large; duplicates, negative times, a far outlier
// and the int64 extremes; p in {0, 50, 99, 100} and fractional ranks.
func TestPercentilesNanosecondsMatchesSort(t *testing.T) {
	r := sim.NewRng(13)
	gens := map[string]func(i int) sim.Time{
		"latencies": func(int) sim.Time { return sim.Time(2_000_000 + r.Int63n(1e9)) },
		"dups":      func(int) sim.Time { return sim.Time(r.Intn(3)) * sim.Microsecond },
		"negative":  func(int) sim.Time { return sim.Time(r.Int63n(2e6)) - 1e6 },
		"outlier":   func(i int) sim.Time { return sim.Time(r.Intn(1000)) + sim.Time(i/999)*sim.Second },
		"extremes":  func(i int) sim.Time { return []sim.Time{math.MinInt64, math.MaxInt64, 0, -1, 1}[i%5] },
	}
	for name, gen := range gens {
		for _, n := range []int{1, 2, 3, 47, 48, 101, 1000, 20000} {
			lats := make([]sim.Time, n)
			for i := range lats {
				lats[i] = gen(i)
			}
			t.Run(name, func(t *testing.T) {
				checkPercentilesNanoseconds(t, lats, 0, 50, 99, 100)
				checkPercentilesNanoseconds(t, lats, 12.5, 33.3, 99.9)
				checkPercentilesNanoseconds(t, lats, 99)
			})
		}
	}
}

// FuzzPercentileMatchesSort compares PercentilesNanoseconds with a sort for
// fuzzer-chosen latencies, eight bytes each and optionally masked to a
// narrow range, at a fuzzer-chosen percentile beside p50 and p99.
func FuzzPercentileMatchesSort(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0}, uint8(64), 99.0)
	f.Add(make([]byte, 8*100), uint8(20), 0.0)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0x80, 7, 0, 0, 0, 0, 0, 0, 0}, uint8(64), 100.0)
	f.Fuzz(func(t *testing.T, data []byte, bits uint8, p float64) {
		lats := make([]sim.Time, len(data)/8)
		if len(lats) == 0 || !(p >= 0 && p <= 100) {
			return
		}
		mask := ^uint64(0)
		if b := bits % 65; b < 64 {
			mask = 1<<b - 1
		}
		for i := range lats {
			var v uint64
			for j := 0; j < 8; j++ {
				v |= uint64(data[8*i+j]) << (8 * j)
			}
			lats[i] = sim.Time(v & mask)
		}
		// Repeat short inputs so the bucket passes run too.
		for len(lats) < 200 {
			lats = append(lats, lats...)
		}
		checkPercentilesNanoseconds(t, lats, p)
		checkPercentilesNanoseconds(t, lats, 50, 99)
	})
}
