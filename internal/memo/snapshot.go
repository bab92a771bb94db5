// Cache snapshots (DESIGN.md §14): serialize a cache's computed entries so
// a fresh process — a restarted replica, or a new member of a sharded
// serving fleet — boots with a warm cache instead of recomputing its hot
// set from scratch.
//
// The memo layer stores opaque `any` values, so serialization is delegated:
// Snapshot receives an encode function mapping (key, value) to bytes and
// Restore receives its inverse. The experiment layer wires these to the
// lossless results JSON wire form, which is what makes a restored dataset
// serve byte-identical responses with zero recompute.
//
// Only settled successes travel: in-flight computations, cached errors and
// panics are skipped — a snapshot is a transcript of reusable results, not
// of failures. Entries are ordered most-recently-used first and carry their
// hit-frequency counter, so a restored cache inherits the donor's hotness
// ranking and a bounded restore keeps the hottest keys.
package memo

import "encoding/json"

// SnapshotEntry is one serialized cache entry: the canonical key, the
// encoded value, and the hotness metadata the eviction policy runs on.
type SnapshotEntry struct {
	// Key is the entry's canonical memoization key.
	Key string `json:"key"`
	// Freq is the entry's hit-frequency counter at snapshot time; Restore
	// clamps it to at least 1.
	Freq int64 `json:"freq,omitempty"`
	// Value is the encoded result, produced by the Snapshot caller's encode
	// function and handed back to Restore's decode.
	Value json.RawMessage `json:"value"`
}

// Snapshot serializes every settled, successful entry through encode,
// most-recently-used first. In-flight computations and cached errors are
// excluded. The cache stays serviceable during the call: entries are
// collected under the lock, encoded outside it (cached values are immutable
// by the package contract).
func (c *Cache) Snapshot(encode func(key string, v any) ([]byte, error)) ([]SnapshotEntry, error) {
	type pending struct {
		key  string
		val  any
		freq int64
	}
	c.mu.Lock()
	collected := make([]pending, 0, len(c.entries))
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		if !e.computed || e.err != nil || e.panicVal != nil {
			continue
		}
		collected = append(collected, pending{key: e.key, val: e.val, freq: e.freq})
	}
	c.mu.Unlock()
	out := make([]SnapshotEntry, 0, len(collected))
	for _, p := range collected {
		data, err := encode(p.key, p.val)
		if err != nil {
			return nil, err
		}
		out = append(out, SnapshotEntry{Key: p.key, Freq: p.freq, Value: data})
	}
	return out, nil
}

// Restore inserts snapshot entries as computed values, decoding each
// through decode. Keys already resident (computed or in flight) are left
// untouched — live state always wins over a snapshot. Restored entries
// join the recency list in snapshot order (most-recently-used first), keep
// their clamped frequency, and count toward the entry budget: an
// over-budget restore evicts cold-first exactly like computed entries do.
// It returns how many entries were actually restored.
func (c *Cache) Restore(entries []SnapshotEntry, decode func(key string, data []byte) (any, error)) (int, error) {
	restored := 0
	for _, se := range entries {
		v, err := decode(se.Key, se.Value)
		if err != nil {
			return restored, err
		}
		c.mu.Lock()
		if _, exists := c.entries[se.Key]; exists {
			c.mu.Unlock()
			continue
		}
		done := make(chan struct{})
		close(done)
		e := &cacheEntry{
			key:      se.Key,
			done:     done,
			val:      v,
			computed: true,
			freq:     max64(se.Freq, 1),
			cancel:   func() {},
		}
		c.entries[se.Key] = e
		// Entries arrive MRU-first, so appending preserves the donor's
		// recency order: the first restored entry ends up at the front.
		e.elem = c.lru.PushBack(e)
		c.evictLocked()
		// The entry may have been evicted immediately (budget smaller than
		// the snapshot); it still counted as restored — the budget decides
		// residency, Restore only offers.
		c.mu.Unlock()
		restored++
	}
	return restored, nil
}

// max64 returns the larger of two int64s.
func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
