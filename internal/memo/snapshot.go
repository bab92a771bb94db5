// Cache snapshots (DESIGN.md §14): serialize a cache's computed entries so
// a fresh process — a restarted replica, or a new member of a sharded
// serving fleet — boots with a warm cache instead of recomputing its hot
// set from scratch.
//
// The memo layer stores opaque `any` values, so serialization is delegated:
// Snapshot receives an encode function mapping (key, value) to bytes and
// Restore receives its inverse, which also names the key to restore under,
// so an entry saved under an older spelling of its key lands on the
// current one. The experiment layer wires these to the lossless results
// JSON wire form, which is what makes a restored dataset serve
// byte-identical responses with zero recompute.
//
// Only settled successes travel: in-flight computations, cached errors and
// panics are skipped — a snapshot is a transcript of reusable results, not
// of failures. Entries are ordered most-recently-used first, so a restored
// cache inherits the donor's recency order and a bounded restore keeps the
// most recent keys. A snapshot written with the per-entry hit-frequency
// counters of earlier versions restores as well: decoding skips unknown
// fields.
package memo

import "encoding/json"

// SnapshotEntry is one serialized cache entry: the canonical key and the
// encoded value.
type SnapshotEntry struct {
	// Key is the entry's canonical memoization key.
	Key string `json:"key"`
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
		key string
		val any
	}
	c.mu.Lock()
	collected := make([]pending, 0, len(c.entries))
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		if !e.computed || e.err != nil || e.panicVal != nil {
			continue
		}
		collected = append(collected, pending{key: e.key, val: e.val})
	}
	c.mu.Unlock()
	out := make([]SnapshotEntry, 0, len(collected))
	for _, p := range collected {
		data, err := encode(p.key, p.val)
		if err != nil {
			return nil, err
		}
		out = append(out, SnapshotEntry{Key: p.key, Value: data})
	}
	return out, nil
}

// Restore inserts snapshot entries as computed values, decoding each
// through decode, which also returns the key to store the value under: the
// entry's own key, or the canonical key an older spelling of it maps to.
// Keys already resident (computed or in flight, or restored earlier in the
// same call) are left untouched — live state always wins over a snapshot,
// and a newer entry over its older duplicates. Restored entries
// join the recency list behind the resident ones in snapshot order
// (most-recently-used first) and count toward the entry budget: an
// over-budget restore evicts from the recency tail exactly like computed
// entries do, so it keeps the snapshot's most recent keys.
// It returns how many entries were actually restored.
func (c *Cache) Restore(entries []SnapshotEntry, decode func(key string, data []byte) (string, any, error)) (int, error) {
	restored := 0
	for _, se := range entries {
		key, v, err := decode(se.Key, se.Value)
		if err != nil {
			return restored, err
		}
		c.mu.Lock()
		if _, exists := c.entries[key]; exists {
			c.mu.Unlock()
			continue
		}
		done := make(chan struct{})
		close(done)
		e := &cacheEntry{
			key:      key,
			done:     done,
			val:      v,
			computed: true,
			cancel:   func() {},
		}
		c.entries[key] = e
		// Entries arrive MRU-first, so appending preserves the donor's
		// recency order: each restored entry sits ahead of the later ones.
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
