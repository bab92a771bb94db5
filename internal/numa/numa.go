// Package numa models the OS view of the evaluated system's memory: two NUMA
// nodes, local DDR and one CPU-less CXL node exactly as the real kernel
// exposes it, a paged address space over them, and the one placement
// mechanism the paper uses — the N:M weighted-interleave mempolicy (§5),
// whose runtime-adjustable percentage of pages on CXL memory is the knob
// Caption turns (§6). See DESIGN.md §4.
package numa

import (
	"fmt"
	"math"
	"sync"
)

// PageBytes is the OS page size.
const PageBytes = 4096

// The two node IDs every address space has.
const (
	// DDR is local DDR memory, node 0.
	DDR = 0
	// CXL is the CXL memory node, node 1.
	CXL = 1
)

// weightScale is the fixed-point resolution of Weighted: the two weights are
// stored as integer shares summing to weightScale, so scheduling is exact
// integer arithmetic and reproducible. Requested weights are honored to
// within 1/weightScale of their normalized value.
const weightScale = 1 << 16

// Weighted implements the N:M weighted-interleave mempolicy over DDR and CXL
// (the kernel patch the paper uses to place, e.g., 25 % of pages on the CXL
// node). It is safe for concurrent use and the split can be changed at
// runtime: changes affect only future allocations, exactly like the real
// mempolicy — this is the interface Caption's tuner drives.
//
// Scheduling is deterministic smooth weighted interleave: a node's next page
// is due at (S − 2·c)/(2·w) — S the fixed-point scale, w the node's integer
// share, c its credit — and every page goes to the node due first. Ties go
// to DDR, and a zero-share node is never chosen. Over any window the
// realized split tracks the weights to within one page per node; an even
// split is plain round-robin starting at DDR.
type Weighted struct {
	mu     sync.Mutex
	share  [2]int64 // fixed-point shares, sum == weightScale
	credit [2]int64 // same fixed-point units
	cxl    float64  // normalized requested CXL share, for reporting
}

// NewDDRCXLSplit builds the policy with the given percentage of pages on the
// CXL node; the remainder goes to DDR. It panics on a percentage outside
// [0, 100].
func NewDDRCXLSplit(cxlPercent float64) *Weighted {
	if !(cxlPercent >= 0 && cxlPercent <= 100) {
		panic(fmt.Sprintf("numa: CXL percent %v out of [0,100]", cxlPercent))
	}
	w := &Weighted{}
	w.set(cxlPercent)
	return w
}

// SetCXLPercent changes the CXL share of future allocations, clamped to
// [0, 100]. Credits — and with them the smooth phase of the schedule — carry
// over, as in the kernel mempolicy.
func (w *Weighted) SetCXLPercent(p float64) error {
	if math.IsNaN(p) {
		return fmt.Errorf("numa: CXL percent is NaN")
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	w.set(p)
	return nil
}

// set normalizes the DDR:CXL weights (100−p):p and quantizes them.
func (w *Weighted) set(p float64) {
	norm := [2]float64{(100 - p) / 100, p / 100}
	share := quantize(norm)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.cxl = norm[CXL]
	w.share = share
}

// quantize converts normalized weights into integer shares summing to
// weightScale using largest-remainder rounding (ties toward DDR). A node
// keeps a zero share only if its requested weight rounds below half a share.
func quantize(norm [2]float64) [2]int64 {
	var out [2]int64
	var rem [2]float64
	total := int64(0)
	for i, v := range norm {
		exact := v * weightScale
		out[i] = int64(exact)
		rem[i] = exact - float64(out[i])
		total += out[i]
	}
	for ; total < weightScale; total++ {
		best := -1
		for i, r := range rem {
			if norm[i] > 0 && (best < 0 || r > rem[best]) {
				best = i
			}
		}
		out[best]++
		rem[best] = -1
	}
	return out
}

// CXLPercent reports the current CXL share.
func (w *Weighted) CXLPercent() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.cxl * 100
}

// place writes the node of each of the next len(dst) pages into dst, with
// one lock acquisition, and returns how many went to CXL.
func (w *Weighted) place(dst []uint8) int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	w0, w1 := w.share[DDR], w.share[CXL]
	c0, c1 := w.credit[DDR], w.credit[CXL]
	var n1 int64
	switch {
	case w1 == 0:
		for i := range dst {
			dst[i] = DDR
		}
	case w0 == 0:
		for i := range dst {
			dst[i] = CXL
		}
		n1 = int64(len(dst))
	default:
		for i := range dst {
			// CXL wins on a strictly earlier pending time; ties go to DDR.
			// Every credit grows by its share and the winner is charged
			// one whole weightScale.
			if (weightScale-2*c1)*w0 < (weightScale-2*c0)*w1 {
				dst[i] = CXL
				c0 += w0
				c1 += w1 - weightScale
				n1++
			} else {
				dst[i] = DDR
				c0 += w0 - weightScale
				c1 += w1
			}
		}
	}
	w.credit[DDR], w.credit[CXL] = c0, c1
	return n1
}

// Space is a paged address space with per-page node placement.
type Space struct {
	policy *Weighted
	pages  []uint8  // node ID per page
	counts [2]int64 // pages per node

	// byNode holds per-node page indices, built lazily on the first call
	// that needs them (migration policies) and maintained incrementally
	// afterwards; pos is each page's position within its node's list.
	byNode [][]int32
	pos    []int32
}

// NewSpace creates an empty address space; policy places its pages.
func NewSpace(policy *Weighted) *Space {
	if policy == nil {
		panic("numa: nil policy")
	}
	return &Space{policy: policy}
}

// Alloc extends the space by n pages placed per the policy and returns the
// index of the first new page. The page store is grown once per call.
func (s *Space) Alloc(n int) int {
	if n < 0 {
		panic("numa: negative allocation")
	}
	first := len(s.pages)
	if cap(s.pages) < first+n {
		// One allocation for the batch, with doubling headroom so
		// incremental callers keep append's amortized O(1) growth.
		newCap := first + n
		if doubled := 2 * cap(s.pages); doubled > newCap {
			newCap = doubled
		}
		grown := make([]uint8, first, newCap)
		copy(grown, s.pages)
		s.pages = grown
	}
	s.pages = s.pages[: first+n : cap(s.pages)]
	cxl := s.policy.place(s.pages[first:])
	s.counts[DDR] += int64(n) - cxl
	s.counts[CXL] += cxl
	if s.byNode != nil {
		s.indexPages(first)
	}
	return first
}

// Pages returns the number of allocated pages.
func (s *Space) Pages() int { return len(s.pages) }

// NodeOfPage returns the node holding page i.
func (s *Space) NodeOfPage(i int) int {
	return int(s.pages[i])
}

// Fraction returns the fraction of pages on the given node (0 when empty).
func (s *Space) Fraction(node int) float64 {
	if len(s.pages) == 0 {
		return 0
	}
	return float64(s.counts[node]) / float64(len(s.pages))
}

// PagesOn returns the number of pages on the given node.
func (s *Space) PagesOn(node int) int64 { return s.counts[node] }

// Move migrates page i to the given node (the mechanism under TPP).
func (s *Space) Move(i, to int) {
	if to != DDR && to != CXL {
		panic(fmt.Sprintf("numa: move to invalid node %d", to))
	}
	from := int(s.pages[i])
	if from == to {
		return
	}
	s.pages[i] = uint8(to)
	s.counts[from]--
	s.counts[to]++
	if s.byNode != nil {
		// Swap-remove from the old node's list, append to the new one.
		list := s.byNode[from]
		p := s.pos[i]
		last := list[len(list)-1]
		list[p] = last
		s.pos[last] = p
		s.byNode[from] = list[:len(list)-1]
		s.pos[i] = int32(len(s.byNode[to]))
		s.byNode[to] = append(s.byNode[to], int32(i))
	}
}

// buildIndex constructs the per-node page lists from scratch.
func (s *Space) buildIndex() {
	s.byNode = make([][]int32, len(s.counts))
	for id, c := range s.counts {
		s.byNode[id] = make([]int32, 0, c)
	}
	s.pos = make([]int32, 0, cap(s.pages))
	s.indexPages(0)
}

// indexPages appends pages [from, len) to the per-node lists.
func (s *Space) indexPages(from int) {
	for i := from; i < len(s.pages); i++ {
		id := s.pages[i]
		s.pos = append(s.pos, int32(len(s.byNode[id])))
		s.byNode[id] = append(s.byNode[id], int32(i))
	}
}

// AppendPagesOnNode appends the index of every page on the given node to dst
// and returns it — O(pages on node) from the maintained per-node index (the
// first call pays a one-time O(pages) index build). The order is arbitrary
// but deterministic. Migration policies pass a reused buffer to stay
// allocation-free across scans.
func (s *Space) AppendPagesOnNode(dst []int, node int) []int {
	if s.byNode == nil {
		s.buildIndex()
	}
	list := s.byNode[node]
	need := len(dst) + len(list)
	if cap(dst) < need {
		grown := make([]int, len(dst), need)
		copy(grown, dst)
		dst = grown
	}
	// Indexed stores, not append: with buildIndex inlined above, an
	// append loop here measured ~40% slower in BenchmarkPagesOnNode.
	out := dst[len(dst):need]
	for i, p := range list {
		out[i] = int(p)
	}
	return dst[:need]
}
