package tpp

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"cxlmem/internal/numa"
	"cxlmem/internal/sim"
)

func newSpace(cxlPercent float64, pages int) *numa.Space {
	s := numa.NewSpace(numa.NewDDRCXLSplit(cxlPercent))
	s.Alloc(pages)
	return s
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.TargetDDRFraction = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("bad fraction should fail")
	}
	bad = DefaultConfig()
	bad.PromoteBatch = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero batch should fail")
	}
}

func TestPromotionMovesHotPagesTowardTarget(t *testing.T) {
	// Start with 100% of pages on CXL, like the paper's TPP experiment.
	space := newSpace(100, 1000)
	e := NewEngine(DefaultConfig(), space)

	// Make the first 500 pages hot.
	for p := 0; p < 500; p++ {
		for k := 0; k < 4; k++ {
			e.RecordAccess(uint64(p) * numa.PageBytes)
		}
	}
	var total int
	for i := 0; i < 20; i++ {
		migs := e.Scan()
		total += len(migs)
		for _, m := range migs {
			if m.From != 1 || m.To != 0 {
				t.Fatalf("unexpected migration direction: %+v", m)
			}
		}
		// Re-touch hot pages between scans (heat decays).
		for p := 0; p < 500; p++ {
			for k := 0; k < 4; k++ {
				e.RecordAccess(uint64(p) * numa.PageBytes)
			}
		}
	}
	if total == 0 {
		t.Fatal("no promotions happened")
	}
	if e.Promotions != int64(total) {
		t.Errorf("promotion counter = %d, want %d", e.Promotions, total)
	}
	if space.Fraction(0) == 0 {
		t.Error("DDR fraction did not grow")
	}
	// Batch limit respected per scan.
	if total > 20*DefaultConfig().PromoteBatch {
		t.Errorf("promoted %d pages, exceeds batch limits", total)
	}
}

func TestPromotionStopsAtTarget(t *testing.T) {
	space := newSpace(100, 400)
	cfg := DefaultConfig()
	cfg.PromoteBatch = 1000
	cfg.HotThreshold = 1
	e := NewEngine(cfg, space)
	for round := 0; round < 50; round++ {
		for p := 0; p < 400; p++ {
			e.RecordAccess(uint64(p) * numa.PageBytes)
			e.RecordAccess(uint64(p) * numa.PageBytes)
		}
		e.Scan()
	}
	frac := space.Fraction(0)
	if frac < 0.70 || frac > 0.80 {
		t.Errorf("steady-state DDR fraction = %v, want ~0.75", frac)
	}
}

func TestDemotionUnderPressure(t *testing.T) {
	// Start with everything on DDR: TPP must demote cold pages to CXL.
	space := newSpace(0, 1000)
	cfg := DefaultConfig()
	e := NewEngine(cfg, space)
	var demoted int
	for i := 0; i < 20; i++ {
		migs := e.Scan()
		for _, m := range migs {
			if m.From != 0 || m.To != 1 {
				t.Fatalf("unexpected direction: %+v", m)
			}
			demoted++
		}
	}
	if demoted == 0 {
		t.Fatal("no demotions under DDR pressure")
	}
	if frac := space.Fraction(0); frac < 0.74 || frac > 0.8 {
		t.Errorf("DDR fraction after demotion = %v, want ~0.75", frac)
	}
	if e.Demotions != int64(demoted) {
		t.Errorf("demotion counter mismatch")
	}
}

func TestHotPagesNotDemoted(t *testing.T) {
	space := newSpace(0, 100)
	cfg := DefaultConfig()
	cfg.DemoteBatch = 100
	e := NewEngine(cfg, space)
	// Heat every page well above cold threshold.
	for p := 0; p < 100; p++ {
		for k := 0; k < 8; k++ {
			e.RecordAccess(uint64(p) * numa.PageBytes)
		}
	}
	migs := e.Scan()
	if len(migs) != 0 {
		t.Errorf("hot pages were demoted: %d migrations", len(migs))
	}
}

func TestPingPongDamperHalvesHeat(t *testing.T) {
	space := newSpace(100, 10)
	cfg := DefaultConfig()
	cfg.HotThreshold = 2
	e := NewEngine(cfg, space)
	for k := 0; k < 8; k++ {
		e.RecordAccess(0)
	}
	if heatOf(e, 0) != 8 {
		t.Fatalf("heat = %d, want 8", heatOf(e, 0))
	}
	migs := e.Scan()
	if len(migs) == 0 {
		t.Fatal("hot page should be promoted")
	}
	// Damper halves on migration, decay halves again: 8 -> 4 -> 2.
	if heatOf(e, 0) != 2 {
		t.Errorf("heat after damped migration + decay = %d, want 2", heatOf(e, 0))
	}
}

func TestHeatDecay(t *testing.T) {
	space := newSpace(50, 10)
	e := NewEngine(DefaultConfig(), space)
	e.RecordAccess(0)
	e.RecordAccess(0)
	e.Scan()
	if heatOf(e, 0) != 1 {
		t.Errorf("heat after decay = %d, want 1", heatOf(e, 0))
	}
	if heatOf(e, 99999) != 0 {
		t.Error("unknown page heat should be 0")
	}
}

func TestRecordAccessGrowsHeatSlice(t *testing.T) {
	space := newSpace(50, 1)
	e := NewEngine(DefaultConfig(), space)
	e.RecordAccess(1000 * numa.PageBytes) // far beyond current pages
	if heatOf(e, 1000) != 1 {
		t.Error("heat slice did not grow")
	}
}

// heatOf returns a page's current heat, 0 for a page never recorded.
func heatOf(e *Engine, page int) uint32 {
	if page >= len(e.heat) {
		return 0
	}
	return e.heat[page]
}

func TestStallPenalty(t *testing.T) {
	m := DefaultCostModel()
	if p := m.StallPenalty(0, sim.Millisecond, 10); p != 0 {
		t.Errorf("zero migrations penalty = %v", p)
	}
	small := m.StallPenalty(10, 100*sim.Millisecond, 10)
	large := m.StallPenalty(1000, 100*sim.Millisecond, 10)
	if large <= small {
		t.Errorf("penalty should grow with migrations: %v vs %v", small, large)
	}
	// Penalty bounded by the window.
	huge := m.StallPenalty(1_000_000, sim.Millisecond, 1)
	if huge > sim.Millisecond {
		t.Errorf("penalty %v exceeds window", huge)
	}
	if p := m.StallPenalty(10, 0, 10); p != 0 {
		t.Errorf("zero window penalty = %v", p)
	}
}

// TestChargesSpreadScans pins the per-access accounting: a scan's
// promotions each charge SyncCost to one later access, in order, and its
// demotions' StallPenalty lands on every access until the next scan
// replaces it; promotions still pending carry over that scan.
func TestChargesSpreadScans(t *testing.T) {
	const window, gbs = 100 * sim.Millisecond, 10.0
	m := DefaultCostModel()
	sync := m.SyncCost(gbs)
	c := NewCharges(window, gbs)
	if got := c.Next(); got != 0 {
		t.Fatalf("charge before any scan = %v, want 0", got)
	}
	promo := Migration{From: numa.CXL, To: numa.DDR}
	demo := Migration{From: numa.DDR, To: numa.CXL}
	if p, d := c.Scan([]Migration{promo, demo, promo, demo, demo}); p != 2 || d != 3 {
		t.Fatalf("Scan counted %d promotions, %d demotions; want 2, 3", p, d)
	}
	stall := m.StallPenalty(3, window, gbs)
	for i, want := range []sim.Time{stall + sync, stall + sync, stall, stall} {
		if got := c.Next(); got != want {
			t.Errorf("access %d after the first scan charged %v, want %v", i, got, want)
		}
	}
	c.Scan([]Migration{promo, promo, promo})
	c.Scan(nil)
	for i, want := range []sim.Time{sync, sync, sync, 0} {
		if got := c.Next(); got != want {
			t.Errorf("access %d after the demotion-free scans charged %v, want %v", i, got, want)
		}
	}
}

func TestNewEnginePanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	cfg := DefaultConfig()
	cfg.PromoteBatch = -1
	NewEngine(cfg, newSpace(50, 10))
}

// refEngine is the original policy, kept as the reference the bounded
// selection in Engine.Scan is checked against: it sorts every CXL page and
// every DDR page on each scan and keeps the first batch of each.
type refEngine struct {
	cfg                   Config
	space                 *numa.Space
	heat                  []uint32
	Promotions, Demotions int64
}

func (e *refEngine) RecordAccess(addr uint64) {
	page := int(addr / numa.PageBytes)
	for len(e.heat) <= page {
		e.heat = append(e.heat, 0)
	}
	if e.heat[page] < 1<<31 {
		e.heat[page]++
	}
}

func (e *refEngine) Scan() []Migration {
	for len(e.heat) < e.space.Pages() {
		e.heat = append(e.heat, 0)
	}
	var migrations []Migration

	cxlPages := e.space.AppendPagesOnNode(nil, numa.CXL)
	sort.Slice(cxlPages, func(a, b int) bool {
		ha, hb := e.heat[cxlPages[a]], e.heat[cxlPages[b]]
		if ha != hb {
			return ha > hb
		}
		return cxlPages[a] < cxlPages[b]
	})
	var hot []int
	for _, p := range cxlPages {
		if len(hot) == e.cfg.PromoteBatch || e.heat[p] < e.cfg.HotThreshold {
			break
		}
		hot = append(hot, p)
	}

	ddrPages := e.space.AppendPagesOnNode(nil, numa.DDR)
	sort.Slice(ddrPages, func(a, b int) bool {
		ha, hb := e.heat[ddrPages[a]], e.heat[ddrPages[b]]
		if ha != hb {
			return ha < hb
		}
		return ddrPages[a] < ddrPages[b]
	})
	var cold []int
	for _, p := range ddrPages {
		if len(cold) == e.cfg.DemoteBatch || e.heat[p] > e.cfg.ColdThreshold {
			break
		}
		cold = append(cold, p)
	}

	need := int(e.cfg.TargetDDRFraction*float64(e.space.Pages())) -
		int(e.space.PagesOn(numa.DDR))
	if need < 0 {
		need = 0
	}
	promote := len(hot)
	if room := need + len(cold); promote > room {
		promote = room
	}
	for _, p := range hot[:promote] {
		e.space.Move(p, numa.DDR)
		migrations = append(migrations, Migration{Page: p, From: numa.CXL, To: numa.DDR})
		e.Promotions++
		if e.cfg.PingPongDamper {
			e.heat[p] /= 2
		}
	}

	over := int(float64(e.space.PagesOn(numa.DDR)) -
		e.cfg.TargetDDRFraction*float64(e.space.Pages()))
	if over > len(cold) {
		over = len(cold)
	}
	for _, p := range cold {
		if over <= 0 {
			break
		}
		e.space.Move(p, numa.CXL)
		migrations = append(migrations, Migration{Page: p, From: numa.DDR, To: numa.CXL})
		e.Demotions++
		over--
		if e.cfg.PingPongDamper {
			e.heat[p] /= 2
		}
	}

	for i := range e.heat {
		e.heat[i] /= 2
	}
	return migrations
}

// scanCase is one randomized comparison of Engine against refEngine.
type scanCase struct {
	pages, promote, demote int
	hot, cold              uint32
	target                 float64
	damper                 bool
	// equal gives every touched page the same heat, so ties decide the
	// candidate order.
	equal bool
	seed  int64
}

func (c scanCase) String() string {
	return fmt.Sprintf("pages=%d promote=%d demote=%d hot=%d cold=%d target=%v damper=%v equal=%v seed=%d",
		c.pages, c.promote, c.demote, c.hot, c.cold, c.target, c.damper, c.equal, c.seed)
}

// checkScanMatchesReference drives Engine and refEngine over identical
// spaces with identical random traffic and compares, after every scan, the
// migrations, every page's heat and node, and the counters.
func checkScanMatchesReference(t *testing.T, c scanCase) {
	t.Helper()
	rng := rand.New(rand.NewSource(c.seed))
	cfg := DefaultConfig()
	cfg.PromoteBatch, cfg.DemoteBatch = c.promote, c.demote
	cfg.HotThreshold, cfg.ColdThreshold = c.hot, c.cold
	cfg.TargetDDRFraction, cfg.PingPongDamper = c.target, c.damper
	cxlPercent := float64(rng.Intn(3) * 50)
	fast := NewEngine(cfg, newSpace(cxlPercent, c.pages))
	ref := &refEngine{cfg: cfg, space: newSpace(cxlPercent, c.pages)}
	for scan := 0; scan < 6; scan++ {
		hotSet := 1 + rng.Intn(c.pages)
		for i := rng.Intn(4 * c.pages); i > 0; i-- {
			page := rng.Intn(hotSet)
			if !c.equal && rng.Intn(4) == 0 {
				page = rng.Intn(c.pages)
			}
			reps := 1
			if c.equal {
				page, reps = i%hotSet, 1+scan%3
			}
			for ; reps > 0; reps-- {
				fast.RecordAccess(uint64(page) * numa.PageBytes)
				ref.RecordAccess(uint64(page) * numa.PageBytes)
			}
		}
		got, want := fast.Scan(), ref.Scan()
		if len(got) != len(want) {
			t.Fatalf("%v scan %d: %d migrations, reference %d", c, scan, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v scan %d: migration %d = %+v, reference %+v", c, scan, i, got[i], want[i])
			}
		}
		for p := 0; p < c.pages; p++ {
			if heatOf(fast, p) != ref.heat[p] || fast.space.NodeOfPage(p) != ref.space.NodeOfPage(p) {
				t.Fatalf("%v scan %d: page %d heat/node %d/%d, reference %d/%d", c, scan, p,
					heatOf(fast, p), fast.space.NodeOfPage(p), ref.heat[p], ref.space.NodeOfPage(p))
			}
		}
		if fast.Promotions != ref.Promotions || fast.Demotions != ref.Demotions {
			t.Fatalf("%v scan %d: counters %d/%d, reference %d/%d", c, scan,
				fast.Promotions, fast.Demotions, ref.Promotions, ref.Demotions)
		}
	}
}

// scanCases enumerates page counts 1..4096, targets 0/0.75/1 and the damper
// both ways; each combination draws batches (1 up to beyond the candidate
// count) and thresholds 0..4, and alternates random and all-equal heat.
func scanCases() []scanCase {
	rng := rand.New(rand.NewSource(7))
	var cases []scanCase
	for _, pages := range []int{1, 2, 3, 17, 64, 65, 200, 1000, 4096} {
		for _, target := range []float64{0, 0.75, 1} {
			for _, damper := range []bool{false, true} {
				batches := []int{1, 2, 64, pages, pages + 1, 3*pages + 5}
				for i := 0; i < 4; i++ {
					cases = append(cases, scanCase{
						pages:   pages,
						promote: batches[rng.Intn(len(batches))],
						demote:  batches[rng.Intn(len(batches))],
						hot:     uint32(rng.Intn(5)),
						cold:    uint32(rng.Intn(5)),
						target:  target,
						damper:  damper,
						equal:   i%2 == 1,
						seed:    rng.Int63(),
					})
				}
			}
		}
	}
	return cases
}

// TestScanMatchesReference holds the bounded top-k selection equal to the
// full-sort reference on randomized traffic.
func TestScanMatchesReference(t *testing.T) {
	for _, c := range scanCases() {
		checkScanMatchesReference(t, c)
	}
}

// FuzzScanMatchesReference is the native fuzz form of
// TestScanMatchesReference, seeded with the same cases.
func FuzzScanMatchesReference(f *testing.F) {
	for _, c := range scanCases() {
		f.Add(uint16(c.pages), uint16(c.promote), uint16(c.demote), uint8(c.hot), uint8(c.cold),
			uint8(c.target*4), c.damper, c.equal, c.seed)
	}
	f.Fuzz(func(t *testing.T, pages, promote, demote uint16, hot, cold, target uint8, damper, equal bool, seed int64) {
		c := scanCase{
			pages:   1 + int(pages)%4096,
			promote: 1 + int(promote),
			demote:  1 + int(demote),
			hot:     uint32(hot % 5),
			cold:    uint32(cold % 5),
			target:  float64(target%5) / 4,
			damper:  damper,
			equal:   equal,
			seed:    seed,
		}
		checkScanMatchesReference(t, c)
	})
}

// TestScanAllocationFree pins the steady-state contract: after the first
// scan, scans and access recording allocate nothing. A hot set that slides
// through a half-CXL space keeps both promotions and demotions flowing.
func TestScanAllocationFree(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TargetDDRFraction = 0.5
	e := NewEngine(cfg, newSpace(50, 4096))
	next := 0
	touch := func() {
		for i := 0; i < 1024; i++ {
			addr := uint64((next+i)%4096) * numa.PageBytes
			e.RecordAccess(addr)
			e.RecordAccess(addr)
		}
		next += 512
	}
	touch()
	e.Scan()
	promotions, demotions := e.Promotions, e.Demotions
	allocs := testing.AllocsPerRun(20, func() {
		touch()
		e.Scan()
	})
	if allocs != 0 {
		t.Fatalf("Scan allocates %v times per call after the first scan", allocs)
	}
	if e.Promotions == promotions || e.Demotions == demotions {
		t.Fatalf("steady-state scans did not migrate both ways: %d promotions, %d demotions",
			e.Promotions-promotions, e.Demotions-demotions)
	}
}
