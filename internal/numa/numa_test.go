package numa

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestWeightedExactSplit(t *testing.T) {
	for _, pct := range []float64{0, 25, 50, 63, 75, 100} {
		w := NewDDRCXLSplit(pct)
		s := NewSpace(w)
		s.Alloc(10000)
		got := s.Fraction(CXL) * 100
		if math.Abs(got-pct) > 0.5 {
			t.Errorf("cxl=%v%%: realized %v%%", pct, got)
		}
	}
}

func TestWeightedSmoothness(t *testing.T) {
	// The deterministic scheduler must not bunch allocations: for a 50:50
	// split, any window of 10 pages holds 5±1 per node.
	w := NewDDRCXLSplit(50)
	s := NewSpace(w)
	s.Alloc(1000)
	for start := 0; start+10 <= 1000; start += 10 {
		cxl := 0
		for i := start; i < start+10; i++ {
			if s.NodeOfPage(i) == CXL {
				cxl++
			}
		}
		if cxl < 4 || cxl > 6 {
			t.Fatalf("window at %d has %d CXL pages, want 5±1", start, cxl)
		}
	}
}

func TestWeightedRuntimeChangeAffectsOnlyNewPages(t *testing.T) {
	w := NewDDRCXLSplit(0)
	s := NewSpace(w)
	s.Alloc(100)
	if err := w.SetCXLPercent(100); err != nil {
		t.Fatal(err)
	}
	s.Alloc(100)
	if s.PagesOn(CXL) != 100 {
		t.Errorf("new pages on CXL = %d, want 100", s.PagesOn(CXL))
	}
	for i := 0; i < 100; i++ {
		if s.NodeOfPage(i) != DDR {
			t.Fatalf("old page %d moved", i)
		}
	}
}

func TestWeightedCXLPercent(t *testing.T) {
	w := NewDDRCXLSplit(37)
	if got := w.CXLPercent(); math.Abs(got-37) > 1e-9 {
		t.Errorf("CXLPercent = %v", got)
	}
	// Clamping.
	if err := w.SetCXLPercent(150); err != nil {
		t.Fatal(err)
	}
	if got := w.CXLPercent(); got != 100 {
		t.Errorf("clamped CXLPercent = %v", got)
	}
	if err := w.SetCXLPercent(-5); err != nil {
		t.Fatal(err)
	}
	if got := w.CXLPercent(); got != 0 {
		t.Errorf("clamped CXLPercent = %v", got)
	}
}

func TestWeightedValidation(t *testing.T) {
	w := NewDDRCXLSplit(25)
	if err := w.SetCXLPercent(math.NaN()); err == nil {
		t.Error("SetCXLPercent(NaN) should error")
	}
	if got := w.CXLPercent(); got != 25 {
		t.Errorf("a refused SetCXLPercent changed the split to %v", got)
	}
	for _, pct := range []float64{-1, 120, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewDDRCXLSplit(%v) should panic", pct)
				}
			}()
			NewDDRCXLSplit(pct)
		}()
	}
}

func TestWeightedSplitProperty(t *testing.T) {
	// Property: for any percentage, the realized split over 1000 pages is
	// within 1 page-percent of the requested split.
	f := func(pRaw uint8) bool {
		pct := float64(pRaw % 101)
		w := NewDDRCXLSplit(pct)
		s := NewSpace(w)
		s.Alloc(1000)
		return math.Abs(s.Fraction(CXL)*100-pct) <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSpaceMove(t *testing.T) {
	s := NewSpace(NewDDRCXLSplit(100))
	s.Alloc(10)
	s.Move(3, DDR)
	if s.NodeOfPage(3) != DDR {
		t.Error("page did not move")
	}
	if s.PagesOn(DDR) != 1 || s.PagesOn(CXL) != 9 {
		t.Errorf("counts after move: %d/%d", s.PagesOn(DDR), s.PagesOn(CXL))
	}
	// Moving to the same node is a no-op.
	s.Move(3, DDR)
	if s.PagesOn(DDR) != 1 {
		t.Error("same-node move changed counts")
	}
}

func TestSpaceMoveCountInvariantProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		s := NewSpace(NewDDRCXLSplit(50))
		s.Alloc(64)
		for _, op := range ops {
			page := int(op) % 64
			to := int(op>>8) % 2
			s.Move(page, to)
		}
		return s.PagesOn(DDR)+s.PagesOn(CXL) == 64 &&
			math.Abs(s.Fraction(DDR)+s.Fraction(CXL)-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPagesOnNode(t *testing.T) {
	s := NewSpace(NewDDRCXLSplit(50))
	s.Alloc(10)
	ddr := s.AppendPagesOnNode(nil, DDR)
	cxl := s.AppendPagesOnNode(nil, CXL)
	if len(ddr)+len(cxl) != 10 {
		t.Errorf("page lists cover %d pages", len(ddr)+len(cxl))
	}
	for _, p := range cxl {
		if s.NodeOfPage(p) != CXL {
			t.Errorf("page %d misclassified", p)
		}
	}
	// Appending keeps what the buffer already holds.
	both := s.AppendPagesOnNode(ddr, CXL)
	if len(both) != 10 || !slices.Equal(both[:len(ddr)], ddr) {
		t.Errorf("append onto the DDR list gave %v", both)
	}
}

func TestSpaceValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"nil policy": func() { NewSpace(nil) },
		"neg alloc":  func() { s := NewSpace(NewDDRCXLSplit(0)); s.Alloc(-1) },
		"bad move":   func() { s := NewSpace(NewDDRCXLSplit(0)); s.Alloc(1); s.Move(0, 7) },
		"neg move":   func() { s := NewSpace(NewDDRCXLSplit(0)); s.Alloc(1); s.Move(0, -1) },
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

func TestFractionEmptySpace(t *testing.T) {
	s := NewSpace(NewDDRCXLSplit(0))
	if s.Fraction(DDR) != 0 {
		t.Error("empty space fraction should be 0")
	}
}

func TestWeightedTieBreakDeterminism(t *testing.T) {
	// Documented tie rule: equal pending times go to DDR, so an even split
	// is plain round-robin starting at DDR.
	s := NewSpace(NewDDRCXLSplit(50))
	s.Alloc(8)
	for i := 0; i < 8; i++ {
		if got, want := s.NodeOfPage(i), i%2; got != want {
			t.Fatalf("50:50 page %d: got node %d, want %d", i, got, want)
		}
	}
	// 2:1 from a fresh policy follows the documented smooth prefix.
	s = NewSpace(NewDDRCXLSplit(100.0 / 3))
	s.Alloc(6)
	for i, want := range []int{DDR, CXL, DDR, DDR, CXL, DDR} {
		if got := s.NodeOfPage(i); got != want {
			t.Fatalf("2:1 page %d: got node %d, want %d", i, got, want)
		}
	}
	// The reference keeps the general rule, ties to the lowest node ID:
	// equal weights over three nodes are round-robin from node 0.
	r := newRefWeighted([]float64{1, 1, 1})
	for i, want := range []int{0, 1, 2, 0, 1, 2, 0, 1, 2} {
		if got := r.Next(); got != want {
			t.Fatalf("reference step %d: got node %d, want %d", i, got, want)
		}
	}
}

// TestAllocMatchesReference holds Space.Alloc to the N-node reference
// scheduler, page by page: random CXL percentages (integer, fractional, 0
// and 100), random batch sizes, and runtime SetCXLPercent changes between
// batches, which keep the schedule's phase. Every page, both node counts and
// CXLPercent must match.
func TestAllocMatchesReference(t *testing.T) {
	rng := newTestRng(42)
	pct := func() float64 {
		switch rng.next() % 5 {
		case 0:
			return float64(rng.next()%2) * 100
		case 1:
			return float64(rng.next() % 101)
		case 2:
			// Both shares fall exactly half-way between two integers, so
			// quantization breaks a remainder tie.
			return 100 * float64(2*(rng.next()%weightScale)+1) / (2 * weightScale)
		default:
			return float64(rng.next()%100_001) / 1000
		}
	}
	for trial := 0; trial < 300; trial++ {
		p := pct()
		if trial == 0 {
			p = 50 // an even split ties on every other page
		}
		w := NewDDRCXLSplit(p)
		ref := newRefWeighted([]float64{100 - p, p})
		s := NewSpace(w)
		var counts [2]int64
		for batch := 0; batch < 6; batch++ {
			if batch > 0 && rng.next()%2 == 0 {
				p = pct()
				if err := w.SetCXLPercent(p); err != nil {
					t.Fatal(err)
				}
				if err := ref.SetWeights([]float64{100 - p, p}); err != nil {
					t.Fatal(err)
				}
			}
			n := int(rng.next() % 3000)
			first := s.Alloc(n)
			for i := first; i < first+n; i++ {
				want := ref.Next()
				counts[want]++
				if got := s.NodeOfPage(i); got != want {
					t.Fatalf("trial %d batch %d (cxl=%v%%): page %d on node %d, reference says %d",
						trial, batch, p, i, got, want)
				}
			}
			if s.PagesOn(DDR) != counts[DDR] || s.PagesOn(CXL) != counts[CXL] {
				t.Fatalf("trial %d batch %d: counts %d/%d, reference %v",
					trial, batch, s.PagesOn(DDR), s.PagesOn(CXL), counts)
			}
			if w.share != [2]int64(ref.weights) {
				t.Fatalf("trial %d batch %d (cxl=%v%%): shares %v, reference %v", trial, batch, p, w.share, ref.weights)
			}
			if got, want := w.CXLPercent(), ref.norm[CXL]*100; got != want {
				t.Fatalf("trial %d batch %d: CXLPercent %v, reference %v", trial, batch, got, want)
			}
		}
	}
}

func TestWeightedPlaceNMatchesNext(t *testing.T) {
	// The batch placement loop must choose, page by page, what the
	// reference scheduler chooses one page at a time.
	rng := newTestRng(7)
	for trial := 0; trial < 100; trial++ {
		wd, wc := float64(rng.next()%100), float64(rng.next()%100)
		if rng.next()%2 == 0 {
			wd++ // ensure positive sum
		} else {
			wc++
		}
		p := 100 * wc / (wd + wc)
		a := NewDDRCXLSplit(p)
		b := newRefWeighted([]float64{100 - p, p})
		n := int(rng.next() % 2000)
		dst := make([]uint8, n)
		cxl := a.place(dst)
		var placed [2]int64
		for i, id := range dst {
			if want := b.Next(); int(id) != want {
				t.Fatalf("trial %d page %d: place chose %d, Next chose %d", trial, i, id, want)
			}
			placed[id]++
		}
		if cxl != placed[CXL] {
			t.Fatalf("trial %d: place reported %d CXL pages, placements %v", trial, cxl, placed)
		}
	}
}

func TestWeightedRuntimeWeightChangeKeepsPhase(t *testing.T) {
	// SetCXLPercent preserves credits: the batch and sequential schedulers
	// must still agree across the change.
	a := NewDDRCXLSplit(25) // 3:1
	b := newRefWeighted([]float64{75, 25})
	a.place(make([]uint8, 17))
	for i := 0; i < 17; i++ {
		b.Next()
	}
	p := 100 * 5.0 / 6 // 1:5
	if err := a.SetCXLPercent(p); err != nil {
		t.Fatal(err)
	}
	if err := b.SetWeights([]float64{100 - p, p}); err != nil {
		t.Fatal(err)
	}
	dst := make([]uint8, 1000)
	got := a.place(dst)
	var want int64
	for i, id := range dst {
		node := b.Next()
		if int(id) != node {
			t.Fatalf("post-SetCXLPercent page %d: place chose %d, reference %d", i, id, node)
		}
		if node == CXL {
			want++
		}
	}
	if got != want {
		t.Fatalf("post-SetCXLPercent CXL pages %d != %d", got, want)
	}
}

func TestSpaceIndexStaysConsistentUnderMoves(t *testing.T) {
	s := NewSpace(NewDDRCXLSplit(50))
	s.Alloc(200)
	_ = s.AppendPagesOnNode(nil, DDR) // force the index
	rng := newTestRng(3)
	for i := 0; i < 500; i++ {
		s.Move(int(rng.next()%200), int(rng.next()%2))
	}
	s.Alloc(50) // index must absorb post-build allocations too
	for node := DDR; node <= CXL; node++ {
		pages := s.AppendPagesOnNode(nil, node)
		if int64(len(pages)) != s.PagesOn(node) {
			t.Fatalf("node %d: index has %d pages, counts say %d", node, len(pages), s.PagesOn(node))
		}
		for _, p := range pages {
			if s.NodeOfPage(p) != node {
				t.Fatalf("node %d: page %d misindexed", node, p)
			}
		}
	}
}

// refWeighted is the general N-node weighted-interleave scheduler that
// Weighted specializes to DDR and CXL, kept as the test-only reference.
// SetWeights, refQuantize and step are the N-node code verbatim; Next takes
// one page at a time.
type refWeighted struct {
	mu      sync.Mutex
	weights []int64   // fixed-point shares, sum == weightScale
	credit  []int64   // same fixed-point units
	norm    []float64 // normalized requested weights, for reporting
}

func newRefWeighted(weights []float64) *refWeighted {
	w := &refWeighted{}
	if err := w.SetWeights(weights); err != nil {
		panic(err)
	}
	return w
}

// SetWeights atomically replaces the weights (future allocations only).
// Credits — and with them the smooth phase of the schedule — carry over when
// the node count is unchanged, as in the kernel mempolicy.
func (w *refWeighted) SetWeights(weights []float64) error {
	if len(weights) == 0 {
		return fmt.Errorf("numa: empty weights")
	}
	sum := 0.0
	for i, v := range weights {
		if v < 0 {
			return fmt.Errorf("numa: negative weight %v at node %d", v, i)
		}
		sum += v
	}
	if sum <= 0 {
		return fmt.Errorf("numa: weights sum to zero")
	}
	norm := make([]float64, len(weights))
	for i, v := range weights {
		norm[i] = v / sum
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.norm = norm
	w.weights = refQuantize(norm, w.weights)
	if len(w.credit) != len(weights) {
		w.credit = make([]int64, len(weights))
	}
	return nil
}

// refQuantize converts normalized weights into integer shares summing to
// weightScale using largest-remainder rounding (ties toward the lowest node
// ID). A node keeps a zero share only if its requested weight rounds below
// half a share; every positive requested weight of at least 1/weightScale of
// the total is representable.
func refQuantize(norm []float64, reuse []int64) []int64 {
	out := reuse
	if len(out) != len(norm) {
		out = make([]int64, len(norm))
	}
	total := int64(0)
	rem := make([]float64, len(norm))
	for i, v := range norm {
		exact := v * weightScale
		fl := int64(exact)
		out[i] = fl
		rem[i] = exact - float64(fl)
		total += fl
	}
	for total < weightScale {
		best := -1
		for i, r := range rem {
			if norm[i] > 0 && (best < 0 || r > rem[best]) {
				best = i
			}
		}
		out[best]++
		rem[best] = -1
		total++
	}
	return out
}

// step performs one scheduling step: the node whose next pending time
// (weightScale − 2·credit)/(2·weight) is smallest wins, ties to the lowest
// node ID; then every credit grows by its weight and the winner is charged
// one whole share. Caller holds w.mu.
func (w *refWeighted) step() int {
	best := -1
	var bestNum, bestW int64
	for i, wt := range w.weights {
		if wt == 0 {
			continue
		}
		num := weightScale - 2*w.credit[i]
		// x_i < x_best  ⟺  num_i·w_best < num_best·w_i (weights positive).
		if best < 0 || num*bestW < bestNum*wt {
			best, bestNum, bestW = i, num, wt
		}
	}
	for i, wt := range w.weights {
		w.credit[i] += wt
	}
	w.credit[best] -= weightScale
	return best
}

// Next places one page.
func (w *refWeighted) Next() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.step()
}

// testRng is a tiny local SplitMix64 so the tests don't depend on sim.
type testRng struct{ s uint64 }

func newTestRng(seed uint64) *testRng { return &testRng{s: seed} }

func (r *testRng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
