package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	cases := []struct {
		in   Time
		ns   float64
		us   float64
		ms   float64
		sec  float64
		name string
	}{
		{Nanosecond, 1, 0.001, 1e-6, 1e-9, "1ns"},
		{Microsecond, 1000, 1, 0.001, 1e-6, "1us"},
		{Millisecond, 1e6, 1000, 1, 0.001, "1ms"},
		{Second, 1e9, 1e6, 1000, 1, "1s"},
	}
	for _, c := range cases {
		if got := c.in.Nanoseconds(); got != c.ns {
			t.Errorf("%s: Nanoseconds = %v, want %v", c.name, got, c.ns)
		}
		if got := c.in.Microseconds(); got != c.us {
			t.Errorf("%s: Microseconds = %v, want %v", c.name, got, c.us)
		}
		if got := c.in.Milliseconds(); got != c.ms {
			t.Errorf("%s: Milliseconds = %v, want %v", c.name, got, c.ms)
		}
		if got := c.in.Seconds(); got != c.sec {
			t.Errorf("%s: Seconds = %v, want %v", c.name, got, c.sec)
		}
	}
}

func TestFromNanoseconds(t *testing.T) {
	if got := FromNanoseconds(1.5); got != 1500*Picosecond {
		t.Errorf("FromNanoseconds(1.5) = %v, want 1500ps", got)
	}
	if got := FromNanoseconds(-2); got != -2*Nanosecond {
		t.Errorf("FromNanoseconds(-2) = %v, want -2ns", got)
	}
}

func TestFromNanosecondsRoundTrip(t *testing.T) {
	f := func(ns uint32) bool {
		v := float64(ns)
		return FromNanoseconds(v).Nanoseconds() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := map[Time]string{
		500 * Picosecond:       "500ps",
		1500 * Picosecond:      "1.5ns",
		2 * Microsecond:        "2.00us",
		3 * Millisecond:        "3.00ms",
		2 * Second:             "2.000s",
		-1500 * Picosecond:     "-1.5ns",
		110*Nanosecond + 200:   "110.2ns",
		4*Millisecond + 500000: "4.00ms",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("(%d).String() = %q, want %q", int64(in), got, want)
		}
	}
}

func TestClockAdvance(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("zero clock should start at 0, got %v", c.Now())
	}
	c.AdvanceTo(12 * Nanosecond)
	if c.Now() != 12*Nanosecond {
		t.Errorf("clock = %v, want 12ns", c.Now())
	}
	c.AdvanceTo(10 * Nanosecond) // in the past: no-op
	if c.Now() != 12*Nanosecond {
		t.Errorf("AdvanceTo past moved clock to %v", c.Now())
	}
	c.AdvanceTo(20 * Nanosecond)
	if c.Now() != 20*Nanosecond {
		t.Errorf("AdvanceTo future = %v, want 20ns", c.Now())
	}
}

func TestRngDeterminism(t *testing.T) {
	a, b := NewRng(42), NewRng(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverged at step %d", i)
		}
	}
	c := NewRng(43)
	same := 0
	a = NewRng(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d equal values in 1000 draws", same)
	}
}

func TestRngFloat64Range(t *testing.T) {
	r := NewRng(7)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRngIntnBounds(t *testing.T) {
	r := NewRng(9)
	f := func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRngIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	NewRng(1).Intn(0)
}

func TestRngExpMean(t *testing.T) {
	r := NewRng(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(100)
	}
	mean := sum / n
	if math.Abs(mean-100) > 2 {
		t.Errorf("Exp(100) sample mean = %v, want ~100", mean)
	}
}

func TestRngPerm(t *testing.T) {
	r := NewRng(17)
	p := r.Perm(100)
	seen := make(map[int]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid/duplicate value %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 100 {
		t.Fatalf("Perm covered %d values, want 100", len(seen))
	}
}

func TestRngSplitIndependence(t *testing.T) {
	parent := NewRng(21)
	child := parent.Split()
	equal := 0
	for i := 0; i < 1000; i++ {
		if parent.Uint64() == child.Uint64() {
			equal++
		}
	}
	if equal > 2 {
		t.Errorf("split streams matched %d/1000 times", equal)
	}
}

func TestZipfBounds(t *testing.T) {
	r := NewRng(23)
	z := NewZipf(r, 1000, 0.99)
	for i := 0; i < 100000; i++ {
		v := z.Next()
		if v < 0 || v >= 1000 {
			t.Fatalf("Zipf out of range: %d", v)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRng(29)
	z := NewZipf(r, 10000, 1.0)
	const n = 200000
	counts := make([]int, 10000)
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	// Rank 0 must dominate rank 99 by roughly the zipf ratio.
	if counts[0] < counts[99]*20 {
		t.Errorf("zipf skew too flat: rank0=%d rank99=%d", counts[0], counts[99])
	}
	// The head (top 1%) should capture a large share of draws at s=1.
	head := 0
	for i := 0; i < 100; i++ {
		head += counts[i]
	}
	if frac := float64(head) / n; frac < 0.4 {
		t.Errorf("top-1%% of keys got %.2f of draws, want >= 0.40", frac)
	}
}

func TestZipfPanics(t *testing.T) {
	r := NewRng(31)
	for _, fn := range []func(){
		func() { NewZipf(r, 0, 1) },
		func() { NewZipf(r, 10, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
