// Package tpp implements a model of Transparent Page Placement (TPP), the
// CXL-aware tiered-memory migration policy the paper evaluates against
// static interleaving (§5.1, Fig. 7). The publicly released TPP patch set
// offers an enhanced migration policy: hot pages on the CXL node are
// promoted to DDR, cold DDR pages are demoted under pressure.
//
// The paper's finding F2 is that for µs-scale latency-sensitive applications
// TPP's *mechanism* hurts: each migration (1) occupies both memory
// controllers with a 4 KB copy, blocking demand reads, and (2) spends CPU
// time on page-table updates and TLB shootdowns. This package models both
// costs explicitly so the Redis experiment can reproduce the latency CDF of
// Fig. 7.
package tpp

import (
	"fmt"

	"cxlmem/internal/numa"
	"cxlmem/internal/sim"
)

// Config parameterizes the policy. The fast tier is always numa.DDR and the
// slow tier numa.CXL.
type Config struct {
	// TargetDDRFraction is the share of pages TPP steers toward DDR
	// (the paper sets 75 % DDR / 25 % CXL from the bandwidth ratio).
	TargetDDRFraction float64
	// PromoteBatch bounds pages promoted per scan; the kernel moves pages
	// in small batches to bound stalls.
	PromoteBatch int
	// DemoteBatch bounds pages demoted per scan under DDR pressure.
	DemoteBatch int
	// HotThreshold is the access count within a scan interval above which
	// a CXL page is promotion-eligible (NUMA-hint-fault style sampling).
	HotThreshold uint32
	// ColdThreshold is the access count at or below which a DDR page is
	// demotion-eligible.
	ColdThreshold uint32
	// PingPongDamper halves a page's recorded heat after it migrates, so a
	// recently moved page needs sustained access to move again (TPP's
	// ping-pong mitigation).
	PingPongDamper bool
}

// DefaultConfig mirrors the paper's setup: 25 % of pages on CXL in steady
// state, small batches, ping-pong damping on.
func DefaultConfig() Config {
	return Config{
		TargetDDRFraction: 0.75,
		PromoteBatch:      64,
		DemoteBatch:       64,
		HotThreshold:      2,
		ColdThreshold:     0,
		PingPongDamper:    true,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.TargetDDRFraction < 0 || c.TargetDDRFraction > 1 {
		return fmt.Errorf("tpp: target DDR fraction %v out of [0,1]", c.TargetDDRFraction)
	}
	if c.PromoteBatch <= 0 || c.DemoteBatch <= 0 {
		return fmt.Errorf("tpp: batches must be positive")
	}
	return nil
}

// Migration describes one page move.
type Migration struct {
	Page     int
	From, To int
}

// CostModel converts migrations into the two penalties of F2.
type CostModel struct {
	// PTEUpdate is the CPU cost per migrated page: unmapping, copying the
	// PTE, TLB shootdown IPIs.
	PTEUpdate sim.Time
	// CopyBytes is the payload per page (read from source + write to
	// destination devices).
	CopyBytes int
}

// DefaultCostModel returns costs typical of a loaded system: ~20 µs of CPU
// per promoted page (hint fault, rmap walk, TLB shootdown IPIs and
// migrate_pages contention) plus the 4 KB copy. Lightly loaded kernels
// migrate faster, but the paper's measurement is taken under full load.
func DefaultCostModel() CostModel {
	return CostModel{PTEUpdate: 20 * sim.Microsecond, CopyBytes: numa.PageBytes}
}

// SyncCost returns the latency charged to the operation that triggers a
// promotion via a NUMA hint fault: the faulting thread performs the PTE
// dance and the page copy synchronously before its access can proceed —
// mechanism (1)+(2) of §5.1 concentrated on one unlucky request.
func (m CostModel) SyncCost(copyBandwidthGBs float64) sim.Time {
	if copyBandwidthGBs <= 0 {
		return m.PTEUpdate
	}
	return m.PTEUpdate + sim.FromNanoseconds(float64(m.CopyBytes)/copyBandwidthGBs)
}

// Charges applies the two penalties of F2 to the accesses that follow each
// scan, the accounting every model running TPP under load shares: each
// promotion's SyncCost falls on one later access (the one whose hint fault
// performs it), and a scan's demotions, copied in the background, add
// their StallPenalty to every access until the next scan.
type Charges struct {
	cost     CostModel
	window   sim.Time
	copyGBs  float64
	syncCost sim.Time
	pending  int      // promotions not yet charged
	penalty  sim.Time // the last scan's demotion stall
}

// NewCharges returns the accounting, under DefaultCostModel, of scans
// every window that copy pages at copyGBs.
func NewCharges(window sim.Time, copyGBs float64) *Charges {
	cost := DefaultCostModel()
	return &Charges{cost: cost, window: window, copyGBs: copyGBs, syncCost: cost.SyncCost(copyGBs)}
}

// Scan charges one scan's migrations and returns how many were promotions
// and how many demotions.
func (c *Charges) Scan(migs []Migration) (promotions, demotions int) {
	for _, m := range migs {
		if m.To == numa.DDR {
			promotions++
		}
	}
	demotions = len(migs) - promotions
	c.pending += promotions
	c.penalty = c.cost.StallPenalty(demotions, c.window, c.copyGBs)
	return promotions, demotions
}

// Next returns the charge on the next access: the stall penalty plus, while
// promotions are pending, one promotion's SyncCost.
func (c *Charges) Next() sim.Time {
	t := c.penalty
	if c.pending > 0 {
		t += c.syncCost
		c.pending--
	}
	return t
}

// Engine runs the policy over an address space.
type Engine struct {
	cfg   Config
	space *numa.Space
	heat  []uint32

	// Scratch reused across scans so the steady-state scan loop stays
	// allocation-free: the page list copied out of the space, the two
	// bounded candidate selections, and the migrations Scan returns.
	pages      []int
	hot, cold  []uint64
	migrations []Migration

	// Promotions and Demotions count migrations performed so far.
	Promotions, Demotions int64
}

// NewEngine creates an engine over the space.
func NewEngine(cfg Config, space *numa.Space) *Engine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Engine{cfg: cfg, space: space, heat: make([]uint32, space.Pages())}
}

// RecordAccess notes one access to the page holding addr (the model's
// equivalent of NUMA hint faults / PEBS sampling).
func (e *Engine) RecordAccess(addr uint64) {
	page := int(addr / numa.PageBytes)
	e.ensure(page)
	if e.heat[page] < 1<<31 {
		e.heat[page]++
	}
}

func (e *Engine) ensure(page int) {
	for len(e.heat) <= page {
		e.heat = append(e.heat, 0)
	}
}

// Scan runs one policy interval. Promotion is hotness-driven: every CXL page
// whose heat crossed the threshold is promotion-eligible (in the kernel this
// happens via NUMA hint faults on the *accessing* thread). Room on DDR is
// made either from the deficit to the target fraction or by demoting cold
// DDR pages — the swap churn behind TPP's ping-pong behaviour. Demotion then
// trims DDR back to the target using only cold pages. Heat decays after each
// scan. The returned migrations have already been applied to the space;
// promotions appear before demotions in the slice. The slice is reused: it
// is valid only until the next Scan.
func (e *Engine) Scan() []Migration {
	n := e.space.Pages()
	e.ensure(n - 1)
	if cap(e.pages) < n {
		// Sized for the whole space once, so no later scan reallocates
		// however the pages shift between the nodes.
		e.pages = make([]int, 0, n)
		e.hot = make([]uint64, 0, min(e.cfg.PromoteBatch, n))
		e.cold = make([]uint64, 0, min(e.cfg.DemoteBatch, n))
		e.migrations = make([]Migration, 0, cap(e.hot)+cap(e.cold))
	}
	migrations := e.migrations[:0]

	// Promotion candidates: the hottest CXL pages over threshold. Demotion
	// candidates: the coldest DDR pages at or under threshold. Equal heat is
	// ordered by page index in both, so candidate choice never depends on
	// the space's internal index order.
	e.hot = e.selectPages(e.hot, numa.CXL, e.cfg.PromoteBatch, ^uint32(0), ^e.cfg.HotThreshold)
	e.cold = e.selectPages(e.cold, numa.DDR, e.cfg.DemoteBatch, 0, e.cfg.ColdThreshold)

	// Room for promotions: the deficit to the DDR target plus whatever cold
	// pages can be swapped out. Without cold pages, promotion never pushes
	// DDR beyond the target.
	need := int(e.cfg.TargetDDRFraction*float64(n)) -
		int(e.space.PagesOn(numa.DDR))
	if need < 0 {
		need = 0
	}
	promote := len(e.hot)
	if room := need + len(e.cold); promote > room {
		promote = room
	}
	for _, key := range e.hot[:promote] {
		p := keyPage(key)
		e.space.Move(p, numa.DDR)
		migrations = append(migrations, Migration{Page: p, From: numa.CXL, To: numa.DDR})
		e.Promotions++
		if e.cfg.PingPongDamper {
			e.heat[p] /= 2
		}
	}

	// Demotion: trim back to the target with cold pages only.
	over := int(float64(e.space.PagesOn(numa.DDR)) -
		e.cfg.TargetDDRFraction*float64(n))
	if over > len(e.cold) {
		over = len(e.cold)
	}
	for _, key := range e.cold[:max(over, 0)] {
		p := keyPage(key)
		e.space.Move(p, numa.CXL)
		migrations = append(migrations, Migration{Page: p, From: numa.DDR, To: numa.CXL})
		e.Demotions++
		if e.cfg.PingPongDamper {
			e.heat[p] /= 2
		}
	}

	// Exponential heat decay between scans.
	for i := range e.heat {
		e.heat[i] /= 2
	}
	e.migrations = migrations
	return migrations
}

// selectPages returns in dst (reused) the k pages on node that rank first,
// in rank order, among those whose flipped heat heat^flip is at most limit.
// A page ranks by its key, (heat^flip)<<32 | page: flip = ^0 ranks hottest
// first and 0 coldest first, ties by ascending page either way. Keys are
// unique, so the order is strict and total, and the selection is exactly
// the first k of a full sort — at O(pages·log k) instead of O(pages·log
// pages).
func (e *Engine) selectPages(dst []uint64, node, k int, flip, limit uint32) []uint64 {
	e.pages = e.space.AppendPagesOnNode(e.pages[:0], node)
	h := dst[:0]
	for _, p := range e.pages {
		rank := e.heat[p] ^ flip
		if rank > limit {
			continue
		}
		key := uint64(rank)<<32 | uint64(p)
		switch {
		case len(h) < k:
			h = append(h, key)
			siftUp(h, len(h)-1)
		case key < h[0]:
			h[0] = key
			siftDown(h, 0, len(h))
		}
	}
	// Heapsort's second phase: the max-heap becomes ascending in place.
	for end := len(h) - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		siftDown(h, 0, end)
	}
	return h
}

// keyPage recovers the page from a selectPages key.
func keyPage(key uint64) int { return int(uint32(key)) }

// siftUp restores the max-heap order of h after h[i] was appended.
func siftUp(h []uint64, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] > h[i] {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

// siftDown restores the max-heap order of h[:n] after h[i] shrank.
func siftDown(h []uint64, i, n int) {
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && h[c+1] > h[c] {
			c++
		}
		if h[i] > h[c] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// StallPenalty returns the demand-read latency penalty from a batch of
// migrations running concurrently with the application over a window: the
// copies occupy the memory controllers ((1) in §5.1) and the PTE updates
// consume CPU ((2)). The penalty is the expected extra latency a demand
// access experiences, assuming migrations are spread over the window.
func (m CostModel) StallPenalty(migrations int, window sim.Time, copyBandwidthGBs float64) sim.Time {
	if migrations == 0 || window <= 0 {
		return 0
	}
	// Time the controllers spend copying instead of serving demand reads.
	copyTime := sim.FromNanoseconds(float64(migrations*m.CopyBytes) / copyBandwidthGBs)
	cpuTime := sim.Time(migrations) * m.PTEUpdate
	busy := copyTime + cpuTime
	if busy > window {
		busy = window
	}
	// Expected extra wait for a random arrival: fraction of window busy ×
	// half the mean busy burst. Bursts are batch-sized copies.
	frac := float64(busy) / float64(window)
	return sim.Time(frac * float64(busy) / 2)
}
