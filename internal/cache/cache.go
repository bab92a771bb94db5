// Package cache implements the CPU cache hierarchy of the evaluated system:
// per-core L1 and L2 caches and a sliced, non-inclusive last-level cache that
// acts as a victim cache for L2 evictions (post-Skylake Intel organization,
// paper §4.3).
//
// The package models the one structural property the paper shows to be
// first-order for CXL memory performance: in sub-NUMA-clustering (SNC) mode,
// L2 victims of lines homed in the node's *local DDR* may only be placed in
// LLC slices of that node, while victims of lines homed in *remote or CXL
// memory* may be placed in any slice of the socket — so a core streaming
// from CXL memory sees a 2–4× larger effective LLC (observation O6,
// Fig. 5, Table 3).
//
// Because the mlc measurement loops funnel millions of simulated accesses
// through this package, the tag stores are built for throughput: one packed
// 64-bit word per line, recency-ordered within each set (see engine.go for
// the layout and the equivalence argument with stamp-based LRU). A
// hierarchy carves every cache's slab from one arena on first use. Accesses
// enter through scalar Access, the reference, or through ReadStream and
// ReadStreamSharded, which share one fused stream loop (kernel.go) that
// shape-randomized tests hold equal to Access.
//
// It also provides Che's approximation for LRU hit rates under zipfian
// popularity, used by the analytic application models where simulating every
// access would be wasteful.
package cache

import (
	"fmt"
)

// LineBytes is the cache line size.
const LineBytes = 64

// Level identifies where an access was satisfied.
type Level int

const (
	// L1 hit in the core's private L1 data cache.
	L1 Level = iota
	// L2 hit in the core's private L2 cache.
	L2
	// LLC hit in a last-level cache slice.
	LLC
	// Memory indicates a full miss served by a memory device.
	Memory
)

// String names the level.
func (l Level) String() string {
	switch l {
	case L1:
		return "L1"
	case L2:
		return "L2"
	case LLC:
		return "LLC"
	case Memory:
		return "memory"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// LevelCounts is a per-Level histogram of satisfied accesses, indexed by
// Level. The streamed measurement loops accumulate one of these instead of
// converting every access into a latency immediately.
type LevelCounts [Memory + 1]uint64

// HomeKind classifies a line's backing device for LLC slice routing.
type HomeKind int

const (
	// HomeLocalDDR marks data homed in the SNC node's own DDR channels:
	// victims stay within the node's LLC slices.
	HomeLocalDDR HomeKind = iota
	// HomeRemote marks data homed in remote NUMA memory or a CXL device:
	// victims may be placed in any slice of the socket.
	HomeRemote
)

// Home describes where a line's data lives, for slice-routing purposes.
type Home struct {
	// Kind selects the routing class.
	Kind HomeKind
	// Node is the SNC node the page belongs to (the accessing node for CXL
	// pages); only consulted when routing is confined to one node.
	Node int
}

// Cache is a single set-associative, LRU write-back cache.
// It stores tags only — the simulation tracks placement, not data.
//
// The tag store is allocated lazily, so building a System stays cheap for
// the many analytic experiments that never simulate an access: a
// hierarchy's caches are carved from its arena on the hierarchy's first
// access, a standalone cache allocates its own slab on its first fill.
// Storage is a single flat slab of packed tag words; engine.go holds the
// layout and the access operations.
type Cache struct {
	words []uint64 // packed tag words; nil until first fill
	// meta is the per-set sidecar, sideWords words per set: meta[3s] and
	// meta[3s+1] are set s's fingerprint planes A and B (one 4-bit nibble per
	// slot each, together an 8-bit fingerprint), meta[3s+2] its recency
	// order word (nibble j = slot at recency position j). The three are
	// interleaved so a probe and its recency update touch one 24-byte run,
	// not scattered words.
	meta     []uint64
	setCount int
	ways     int
	shift    uint // 64 - log2(setCount), for Fibonacci set hashing
	lruShift uint // 4*(ways-1): bit offset of the LRU nibble in an order word

	// Hits and Misses count lookups.
	Hits, Misses uint64
	// Evictions counts valid lines displaced by fills.
	Evictions uint64
}

// NewCache builds a cache of sizeBytes capacity and the given associativity.
// sizeBytes must be a positive multiple of ways*LineBytes; the set count is
// rounded to a power of two (downward) for fast indexing. Associativity is
// capped at MaxWays by the packed engine's per-set fingerprint planes.
func NewCache(sizeBytes int64, ways int) *Cache {
	if ways <= 0 {
		panic("cache: non-positive associativity")
	}
	if ways > MaxWays {
		panic(fmt.Sprintf("cache: %d ways exceeds the engine's %d-slot fingerprint sidecar", ways, MaxWays))
	}
	lines := sizeBytes / LineBytes
	sets := lines / int64(ways)
	if sets <= 0 {
		panic(fmt.Sprintf("cache: size %d too small for %d ways", sizeBytes, ways))
	}
	// Round sets down to a power of two.
	p := int64(1)
	for p*2 <= sets {
		p *= 2
	}
	c := &Cache{setCount: int(p), ways: ways, shift: 64, lruShift: uint(4 * (ways - 1))}
	for s := p; s > 1; s /= 2 {
		c.shift--
	}
	return c
}

// Lines returns the capacity in cache lines.
func (c *Cache) Lines() int { return c.setCount * c.ways }

// SizeBytes returns the modeled capacity in bytes.
func (c *Cache) SizeBytes() int64 { return int64(c.Lines()) * LineBytes }

func (c *Cache) setIndex(addr uint64) uint64 {
	line := addr / LineBytes
	// Fibonacci hashing: the *high* bits of the multiplicative hash index
	// the set. Slice routing (hierarchy.go) consumes the low bits of the
	// same product, so using high bits here keeps set placement
	// uncorrelated with slice placement — like the physical-address
	// hashing real LLCs use.
	if c.shift >= 64 {
		return 0
	}
	return (line * 0x9e3779b97f4a7c15) >> c.shift
}

// Victim is a line displaced by an insertion.
type Victim struct {
	Addr  uint64
	Home  Home
	Dirty bool
}
