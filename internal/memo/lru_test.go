package memo

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// lruModel is the eviction rule the cache is held to, written the obvious
// way: a list of resident keys, most recently used first, whose tail is
// dropped until it fits the budget.
type lruModel struct {
	budget    int
	keys      []string
	evictions int64
}

// do records one Do call and reports whether it was a hit.
func (m *lruModel) do(key string) bool {
	if i := slices.Index(m.keys, key); i >= 0 {
		copy(m.keys[1:i+1], m.keys[:i])
		m.keys[0] = key
		return true
	}
	m.keys = append([]string{key}, m.keys...)
	m.trim()
	return false
}

// configure replaces the budget, evicting down to it.
func (m *lruModel) configure(budget int) {
	m.budget = budget
	m.trim()
}

// restore offers keys, most recently used first, behind the resident ones,
// and reports how many were not already resident.
func (m *lruModel) restore(keys []string) int {
	n := 0
	for _, k := range keys {
		if !slices.Contains(m.keys, k) {
			m.keys = append(m.keys, k)
			m.trim()
			n++
		}
	}
	return n
}

func (m *lruModel) trim() {
	for m.budget > 0 && len(m.keys) > m.budget {
		m.keys = m.keys[:len(m.keys)-1]
		m.evictions++
	}
}

// TestCacheMatchesListLRU feeds the cache and lruModel the same generated
// call sequences — budgets 1–16, hits and misses over a keyspace up to three
// times the budget, Configure shrinks and growths, bounded Restores of
// partly resident snapshots — and after every call requires the same hit or
// miss, the same eviction count and the same resident keys in the same
// recency order.
func TestCacheMatchesListLRU(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		budget := 1 + rng.Intn(16)
		keyspace := 1 + rng.Intn(3*budget)
		c := NewCacheWith(CacheConfig{MaxEntries: budget})
		m := &lruModel{budget: budget}
		var hits int64
		for step := 0; step < 300; step++ {
			var op string
			switch r := rng.Intn(100); {
			case r < 3 || step == 150:
				// A shrink at step 150, a shrink or a growth otherwise.
				b := 1 + rng.Intn(16)
				if step == 150 {
					b = 1 + rng.Intn(m.budget)
				}
				op = fmt.Sprintf("Configure(%d)", b)
				c.Configure(CacheConfig{MaxEntries: b})
				m.configure(b)
			case r < 6 || step == 100:
				keys := restoreKeys(rng, keyspace)
				op = fmt.Sprintf("Restore(%v)", keys)
				entries := make([]SnapshotEntry, len(keys))
				for i, k := range keys {
					entries[i] = SnapshotEntry{Key: k, Value: json.RawMessage(fmt.Sprintf("%q", "v"+k))}
				}
				n, err := c.Restore(entries, decodeString)
				if want := m.restore(keys); err != nil || n != want {
					t.Fatalf("seed %d step %d: %s = %d, %v; want %d restored", seed, step, op, n, err, want)
				}
			default:
				key := fmt.Sprintf("k%d", rng.Intn(keyspace))
				op = fmt.Sprintf("Do(%s)", key)
				computed := false
				v, err := c.Do(key, func() (any, error) { computed = true; return "v" + key, nil })
				if err != nil || v != "v"+key {
					t.Fatalf("seed %d step %d: %s = %v, %v", seed, step, op, v, err)
				}
				hit := m.do(key)
				if hit == computed {
					t.Fatalf("seed %d step %d: %s computed=%v, model hit=%v", seed, step, op, computed, hit)
				}
				if hit {
					hits++
				}
			}
			snap, err := c.Snapshot(encodeString)
			if err != nil {
				t.Fatal(err)
			}
			resident := make([]string, len(snap))
			for i, se := range snap {
				resident[i] = se.Key
			}
			if !slices.Equal(resident, m.keys) {
				t.Fatalf("seed %d step %d: after %s the cache holds %v, the model %v", seed, step, op, resident, m.keys)
			}
			if st := c.Stats(); st.Evictions != m.evictions || st.Hits != hits || st.Size != len(m.keys) {
				t.Fatalf("seed %d step %d: after %s stats %+v, model evictions %d hits %d size %d",
					seed, step, op, st, m.evictions, hits, len(m.keys))
			}
		}
	}
}

// restoreKeys draws a snapshot's distinct keys, most recent first: some
// from the keyspace (possibly resident), some never requested.
func restoreKeys(rng *rand.Rand, keyspace int) []string {
	var keys []string
	for i := rng.Intn(2 * keyspace); i >= 0; i-- {
		k := fmt.Sprintf("k%d", rng.Intn(keyspace))
		if rng.Intn(3) == 0 {
			k = fmt.Sprintf("r%d", rng.Intn(keyspace))
		}
		if !slices.Contains(keys, k) {
			keys = append(keys, k)
		}
	}
	return keys
}
