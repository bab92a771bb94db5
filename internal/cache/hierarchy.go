package cache

import "fmt"

// HierConfig sizes a Hierarchy. The defaults (see SPRHierConfig) follow the
// paper's Intel Xeon 6430 system: 32 cores in 4 chiplets, 60 MB LLC.
type HierConfig struct {
	// Cores is the number of cores, each with private L1/L2 and one LLC
	// slice (Intel allocates one slice per core).
	Cores int
	// SNCNodes is the number of sub-NUMA clusters (1 = SNC disabled).
	// Cores must divide evenly among nodes.
	SNCNodes int
	// L1Bytes/L1Ways size each core's L1 data cache.
	L1Bytes int64
	L1Ways  int
	// L2Bytes/L2Ways size each core's private L2.
	L2Bytes int64
	L2Ways  int
	// LLCSliceBytes/LLCWays size each LLC slice.
	LLCSliceBytes int64
	LLCWays       int
	// CXLBreaksIsolation selects whether remote/CXL-homed victims may use
	// every slice (true: the measured hardware behaviour, O6) or are
	// confined to the accessor's node (false: the ablation in DESIGN.md §6).
	CXLBreaksIsolation bool
}

// SPRHierConfig returns the hierarchy of the evaluated Xeon 6430: 32 cores,
// 48 KB L1D, 2 MB L2 per core, 60 MB LLC in 32 slices, with the given SNC
// node count (1 or 4).
func SPRHierConfig(sncNodes int) HierConfig {
	return HierConfig{
		Cores:              32,
		SNCNodes:           sncNodes,
		L1Bytes:            48 << 10,
		L1Ways:             12,
		L2Bytes:            2 << 20,
		L2Ways:             16,
		LLCSliceBytes:      (60 << 20) / 32,
		LLCWays:            15,
		CXLBreaksIsolation: true,
	}
}

// Validate reports configuration errors. Beyond dividing the cores evenly,
// the SNC node count must fit the packed home field (MaxHomeNode), and the
// slice count (one per core) must be a power of two: the stream loop routes
// a line to its slice with a mask over the hash's low bits. A node's slice
// count Cores/SNCNodes divides Cores, so it is then a power of two as well.
func (c HierConfig) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("cache: %d cores", c.Cores)
	}
	if c.SNCNodes <= 0 || c.Cores%c.SNCNodes != 0 {
		return fmt.Errorf("cache: %d cores do not divide into %d SNC nodes", c.Cores, c.SNCNodes)
	}
	if c.SNCNodes-1 > MaxHomeNode {
		return fmt.Errorf("cache: %d SNC nodes exceed the packed cache-line home limit (max node %d)",
			c.SNCNodes, MaxHomeNode)
	}
	if c.Cores&(c.Cores-1) != 0 {
		return fmt.Errorf("cache: %d cores (LLC slices) is not a power of two", c.Cores)
	}
	return nil
}

// Hierarchy is the full multi-core cache system.
type Hierarchy struct {
	cfg    HierConfig
	l1     []*Cache // per core
	l2     []*Cache // per core
	slices []*Cache // per core (one slice each)

	// LLCHits/LLCMisses aggregate slice-level statistics.
	LLCHits, LLCMisses uint64

	arena []uint64 // slab arena backing every cache; see materializeAll

	// kern is the flat LLC view the stream loop runs on (kernel.go), built
	// with the arena and read-only afterwards.
	kern streamKernel

	// Reusable counting-sort scratch for ReadStreamSharded (stream.go).
	shardBuf []uint64
	shardOff []int32
}

// materializeAll backs every cache with a slab carved from one contiguous
// arena, madvised toward 2 MB pages. A simulated access touches two or three
// random sets across megabytes of slab; on 4 KB pages each touch costs a
// dTLB miss whose page walk serializes the whole stream, so pooling the
// slabs into a huge-page arena is worth more than any micro-optimization of
// the probe loops. Every entry point (Access, the stream drivers, Capture,
// the restores) calls it first, so a hierarchy's caches never materialize
// on their own and the arena is always the hierarchy's complete line state.
func (h *Hierarchy) materializeAll() {
	if h.arena != nil {
		return
	}
	all := h.all()
	nWords, nMeta := arenaWords(all)
	h.arena = make([]uint64, nWords+nMeta)
	adviseHugePages(h.arena)
	// All words, then all sidecars, each in all() order: every slice-level
	// array is contiguous across slices, the layout buildKernel views.
	words, meta := h.arena[:nWords], h.arena[nWords:]
	for _, c := range all {
		n := c.setCount * c.ways
		c.words, words = words[:n:n], words[n:]
		n = sideWords * c.setCount
		c.meta, meta = meta[:n:n], meta[n:]
		initOrders(c.meta)
	}
	h.buildKernel(nWords)
}

// arenaWords sizes the arena's two regions for the caches of all(): every
// cache's tag words, then every cache's sidecars. It reads only the
// geometry, so it answers for a pristine hierarchy too.
func arenaWords(all []*Cache) (nWords, nMeta int) {
	for _, c := range all {
		nWords += c.setCount * c.ways
		nMeta += sideWords * c.setCount // two fingerprint planes + order word per set
	}
	return nWords, nMeta
}

// all yields every cache in the hierarchy, LLC slices first (they are the
// hottest slabs, so they get the front of the arena).
func (h *Hierarchy) all() []*Cache {
	out := make([]*Cache, 0, 3*len(h.l1))
	out = append(out, h.slices...)
	out = append(out, h.l2...)
	out = append(out, h.l1...)
	return out
}

// NewHierarchy builds the hierarchy for the given configuration.
func NewHierarchy(cfg HierConfig) *Hierarchy {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	h := &Hierarchy{cfg: cfg}
	for i := 0; i < cfg.Cores; i++ {
		h.l1 = append(h.l1, NewCache(cfg.L1Bytes, cfg.L1Ways))
		h.l2 = append(h.l2, NewCache(cfg.L2Bytes, cfg.L2Ways))
		h.slices = append(h.slices, NewCache(cfg.LLCSliceBytes, cfg.LLCWays))
	}
	return h
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() HierConfig { return h.cfg }

// NodeOf returns the SNC node of a core.
func (h *Hierarchy) NodeOf(core int) int {
	perNode := h.cfg.Cores / h.cfg.SNCNodes
	return core / perNode
}

// sliceRoute is the hoisted slice-routing decision for one Home: the probe
// loops resolve it once per stream instead of once per access. slice() maps
// a line's hash into [base, base+mask]; Validate guarantees every route
// spans a power-of-two slice count, so a mask suffices.
type sliceRoute struct {
	base int
	mask uint64 // slice count - 1
}

// route resolves the SNC isolation rules of §4.3 for the given home.
func (c *HierConfig) route(home Home) sliceRoute {
	confined := false
	if c.SNCNodes > 1 {
		switch home.Kind {
		case HomeLocalDDR:
			confined = true
		case HomeRemote:
			confined = !c.CXLBreaksIsolation
		}
	}
	if !confined {
		return sliceRoute{mask: uint64(c.Cores - 1)}
	}
	perNode := c.Cores / c.SNCNodes
	return sliceRoute{base: home.Node * perNode, mask: uint64(perNode - 1)}
}

// RouteClass is everything a single-home read stream into a pristine
// hierarchy depends on besides its addresses: the geometry (the
// configuration with CXLBreaksIsolation cleared, since the flag only steers
// routing) and the LLC slices the home's lines are routed to. Two
// (configuration, home) pairs of one class evolve identical states from
// identical streams, except for the home bits every filled line carries,
// which RestoreRehomed rewrites (DESIGN.md §20).
type RouteClass struct {
	Geometry HierConfig
	route    sliceRoute
}

// RouteClass returns the route class of home under the configuration.
func (c HierConfig) RouteClass(home Home) RouteClass {
	rt := c.route(home)
	c.CXLBreaksIsolation = false
	return RouteClass{Geometry: c, route: rt}
}

// slice routes a line (addr/LineBytes) to its LLC slice index.
func (r sliceRoute) slice(line uint64) int {
	return r.base + int(line*fibMul&r.mask)
}

// sliceFor routes an address with the given home to its LLC slice. It
// stays out of line although it fits the inlining budget: the stream loop
// calls it only on its mixed-home spill branch, which mlc's single-home
// streams never take, so inlining would add code to the hot loop and save
// nothing.
//
//go:noinline
func (h *Hierarchy) sliceFor(addr uint64, home Home) int {
	return h.cfg.route(home).slice(addr / LineBytes)
}

// EffectiveLLCBytes returns the LLC capacity visible to lines with the given
// home: the slices route sends them to — the whole socket for remote/CXL
// lines when isolation is broken, a single node's slices otherwise.
func (h *Hierarchy) EffectiveLLCBytes(home Home) int64 {
	return int64(h.cfg.route(home).mask+1) * h.cfg.LLCSliceBytes
}

// PrivateLines returns a core's L1 and L2 capacities in cache lines, from
// the built caches' actual geometry (set counts are rounded to powers of
// two, so this can differ from the configured byte sizes). The analytic
// fidelity tier (internal/mlc) sizes its level-fraction model from these.
func (h *Hierarchy) PrivateLines(core int) (l1Lines, l2Lines int) {
	if core < 0 || core >= h.cfg.Cores {
		panic(fmt.Sprintf("cache: core %d out of range", core))
	}
	return h.l1[core].Lines(), h.l2[core].Lines()
}

// EffectiveLLCLines is EffectiveLLCBytes in cache lines, measured from the
// built slices' actual geometry rather than the configured byte sizes.
func (h *Hierarchy) EffectiveLLCLines(home Home) int64 {
	return int64(h.cfg.route(home).mask+1) * int64(h.slices[0].Lines())
}

// Access performs one load or store by core to addr (a byte address) whose
// page is homed as given. It returns the level that satisfied the access.
//
// The flow models a non-inclusive hierarchy with the LLC as an L2 victim
// cache: fills from memory go to L1+L2; L2 victims are written to the routed
// LLC slice; LLC hits promote the line back into the core's L1/L2 and remove
// it from the LLC. The LLC step is a single combined probe-and-remove — a
// victim hit touches its set exactly once instead of the historical
// Lookup/Invalidate/Insert triple scan.
func (h *Hierarchy) Access(core int, addr uint64, home Home, write bool) Level {
	if core < 0 || core >= h.cfg.Cores {
		panic(fmt.Sprintf("cache: core %d out of range", core))
	}
	h.materializeAll()
	if h.l1[core].Lookup(addr, write) {
		return L1
	}
	if h.l2[core].Lookup(addr, write) {
		h.fillL1(core, addr, home, write)
		return L2
	}
	slice := h.slices[h.sliceFor(addr, home)]
	if found, dirty := slice.ProbeRemove(addr); found {
		// Victim-cache hit: promote to the core's private levels.
		h.LLCHits++
		h.fillPrivate(core, addr, home, write || dirty)
		return LLC
	}
	h.LLCMisses++
	h.fillPrivate(core, addr, home, write)
	return Memory
}

// ReadStream performs one read access per address in addrs, all issued by
// core against pages homed the same way, and accumulates into counts the
// level that satisfied each access. It is behaviorally identical to calling
// Access(core, addr, home, false) per address — Access is the scalar
// reference, and TestReadStreamMatchesAccess and FuzzStreamMatchesAccess
// hold the two equal on randomized shapes — but it runs the package's one
// stream loop (streamFused, kernel.go), which fuses the whole L1→L2→LLC
// probe/fill/spill chain into one loop body working directly on the packed
// slabs:
//
//   - the line hash is computed once and shared by the set indices, the
//     slice route and the fingerprint (they consume different bit ranges of
//     one product);
//   - every probe is a SWAR fingerprint match — no way scans;
//   - each probed set is touched exactly once per access, and a full miss
//     never reads the tag words at all;
//   - hit/miss counters accumulate in locals and flush once per call.
func (h *Hierarchy) ReadStream(core int, addrs []uint64, home Home, counts *LevelCounts) {
	if core < 0 || core >= h.cfg.Cores {
		panic(fmt.Sprintf("cache: core %d out of range", core))
	}
	h.materializeAll()
	st := newStreamCounters(len(h.slices))
	h.streamFused(core, addrs, h.cfg.route(home), packWord(0, home, false), st)
	h.flushStream(core, st, counts)
}

// fillPrivate installs a line into the core's L1 and L2, spilling the L2
// victim into its routed LLC slice.
func (h *Hierarchy) fillPrivate(core int, addr uint64, home Home, dirty bool) {
	h.fillL1(core, addr, home, dirty)
	if v, ok := h.l2[core].Insert(addr, home, dirty); ok {
		// L2 victim spills to the LLC slice chosen by its own home.
		h.slices[h.sliceFor(v.Addr, v.Home)].Insert(v.Addr, v.Home, v.Dirty)
	}
}

func (h *Hierarchy) fillL1(core int, addr uint64, home Home, dirty bool) {
	// L1 victims are silently dropped: L2 is modeled as inclusive of L1.
	h.l1[core].Insert(addr, home, dirty)
}

// SliceOccupancy returns the number of valid lines in each LLC slice
// (diagnostics for the SNC-isolation tests).
func (h *Hierarchy) SliceOccupancy() []int {
	out := make([]int, len(h.slices))
	for i, s := range h.slices {
		out[i] = s.Occupancy()
	}
	return out
}
