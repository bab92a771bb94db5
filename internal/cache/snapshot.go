package cache

// Hierarchy state snapshots (DESIGN.md §15, §20).
//
// A warmed hierarchy is expensive to produce — the buffer-latency warmup
// streams millions of simulated accesses — and cheap to describe: every
// cache is carved from the shared arena, so the arena's words plus the
// per-cache statistic counters ARE the complete simulated state. Capture
// copies them out.
//
// RestoreRehomed copies a snapshot of a single-home stream back into any
// hierarchy where another home has the same route class, rewriting each
// resident line's home bits on the way. A read stream's home only rides
// along in the words it fills, so the result is the state a cold stream
// with the new home would have reached; with the captured home and
// configuration it is the captured state itself. The warm-state cache in
// internal/mlc restores through it, which lets one warmup serve every
// configuration that routes its lines alike
// (TestRestoreRehomedMatchesColdWarmup, TestWarmStateByteIdentical).

// Snapshot is a deep copy of a Hierarchy's complete simulated state: the
// packed tag words and sidecars of every cache plus all statistic counters.
// Snapshots are immutable once captured and safe to share across goroutines.
type Snapshot struct {
	cfg                HierConfig
	arena              []uint64
	counters           []uint64 // Hits, Misses, Evictions per cache, all() order
	llcHits, llcMisses uint64
}

// Pristine reports whether the hierarchy has never simulated an access: no
// slab arena is carved yet. Restoring into a pristine hierarchy is
// equivalent to replaying the captured hierarchy's whole history into it.
func (h *Hierarchy) Pristine() bool { return h.arena == nil }

// Capture deep-copies the hierarchy's simulated state: its arena plus every
// cache's statistic counters.
func (h *Hierarchy) Capture() *Snapshot {
	h.materializeAll()
	all := h.all()
	s := &Snapshot{
		cfg:       h.cfg,
		arena:     make([]uint64, len(h.arena)),
		counters:  make([]uint64, 0, 3*len(all)),
		llcHits:   h.LLCHits,
		llcMisses: h.LLCMisses,
	}
	copy(s.arena, h.arena)
	for _, c := range all {
		s.counters = append(s.counters, c.Hits, c.Misses, c.Evictions)
	}
	return s
}

// RestoreRehomed overwrites the hierarchy's simulated state with the
// snapshot's, every resident line rehomed from from to to. It refuses —
// reporting false and writing nothing — unless from under the snapshot's
// configuration and to under the hierarchy's share a route class, and every
// resident line of the snapshot is homed at from. The arena is copied with
// each nonzero tag word's home bits rewritten to to's; the sidecars and
// counters are copied verbatim.
//
// Restored from a capture of a pristine hierarchy driven by from-homed read
// streams, the hierarchy is byte-identical to a pristine one driven by the
// same streams homed at to: the home decides only the slice route, which
// the route class fixes, and the home bits that fills stamp on the words.
func (h *Hierarchy) RestoreRehomed(s *Snapshot, from, to Home) bool {
	if s.cfg.RouteClass(from) != h.cfg.RouteClass(to) {
		return false
	}
	// Equal geometries carve equal layouts: the tag words lead the arena,
	// the sidecars follow.
	nWords, _ := arenaWords(h.all())
	words := s.arena[:nWords]
	fromBits, toBits := packWord(0, from, false), packWord(0, to, false)
	for _, w := range words {
		if w&homeBitsMask != fromBits && w != 0 {
			return false
		}
	}
	h.materializeAll()
	dst := h.arena[:nWords]
	for i, w := range words {
		if w != 0 {
			w ^= fromBits ^ toBits
		}
		dst[i] = w
	}
	copy(h.arena[nWords:], s.arena[nWords:])
	h.restoreCounters(s)
	return true
}

// restoreCounters copies the snapshot's statistic counters into the
// hierarchy, whose layout matches the snapshot's.
func (h *Hierarchy) restoreCounters(s *Snapshot) {
	h.LLCHits, h.LLCMisses = s.llcHits, s.llcMisses
	for i, c := range h.all() {
		c.Hits, c.Misses, c.Evictions = s.counters[3*i], s.counters[3*i+1], s.counters[3*i+2]
	}
}
