package cache

// Hierarchy state snapshots (DESIGN.md §15).
//
// A warmed hierarchy is expensive to produce — the buffer-latency warmup
// streams millions of simulated accesses — and cheap to describe: every
// cache is carved from the shared arena, so the arena's words plus the
// per-cache statistic counters ARE the complete simulated state. Capture
// copies them out; Restore copies them back into any hierarchy of the same
// configuration, leaving it byte-identical to the captured one (the
// warm-state cache in internal/mlc rides on this, and
// TestSnapshotRoundTrip/TestWarmStateByteIdentical pin it).

// Snapshot is a deep copy of a Hierarchy's complete simulated state: the
// packed tag words and sidecars of every cache plus all statistic counters.
// Snapshots are immutable once captured and safe to share across goroutines.
type Snapshot struct {
	cfg                HierConfig
	arena              []uint64
	counters           []uint64 // Hits, Misses, Evictions per cache, all() order
	llcHits, llcMisses uint64
}

// Config returns the configuration of the hierarchy the snapshot was
// captured from; Restore only accepts hierarchies configured identically.
func (s *Snapshot) Config() HierConfig { return s.cfg }

// Bytes reports the snapshot's approximate memory footprint, for sizing the
// warm-state cache bound.
func (s *Snapshot) Bytes() int64 {
	return int64(len(s.arena)+len(s.counters)) * 8
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

// Restore overwrites the hierarchy's simulated state with the snapshot's,
// leaving it byte-identical to the hierarchy Capture saw. It reports false —
// and changes nothing — when the hierarchy's configuration differs from the
// snapshot's. The arena carve is deterministic per configuration, so equal
// configurations always have identical layouts.
func (h *Hierarchy) Restore(s *Snapshot) bool {
	if h.cfg != s.cfg {
		return false
	}
	h.materializeAll()
	copy(h.arena, s.arena)
	h.LLCHits, h.LLCMisses = s.llcHits, s.llcMisses
	for i, c := range h.all() {
		c.Hits, c.Misses, c.Evictions = s.counters[3*i], s.counters[3*i+1], s.counters[3*i+2]
	}
	return true
}
