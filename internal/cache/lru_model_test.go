package cache

import (
	"testing"

	"cxlmem/internal/sim"
)

// Randomized model check of the packed order-word recency engine against a
// reference list-based LRU. The reference keeps each set as an explicit
// MRU→LRU slice and mirrors every operation; after each step the engine's
// decoded recency order, membership, victims and counters must match the
// model exactly, for every associativity the engine supports.

// modelLine is one resident line in the reference LRU.
type modelLine struct {
	addr  uint64
	home  Home
	dirty bool
}

// lruModel is the reference: per-set MRU→LRU lists with textbook LRU moves.
type lruModel struct {
	sets map[int][]modelLine
	ways int
}

func newLRUModel(ways int) *lruModel {
	return &lruModel{sets: map[int][]modelLine{}, ways: ways}
}

func (m *lruModel) find(s int, addr uint64) int {
	for i, l := range m.sets[s] {
		if l.addr == addr {
			return i
		}
	}
	return -1
}

func (m *lruModel) promote(s, i int) {
	set := m.sets[s]
	l := set[i]
	copy(set[1:i+1], set[:i])
	set[0] = l
}

func (m *lruModel) lookup(s int, addr uint64, write bool) bool {
	i := m.find(s, addr)
	if i < 0 {
		return false
	}
	m.promote(s, i)
	if write {
		m.sets[s][0].dirty = true
	}
	return true
}

func (m *lruModel) insert(s int, addr uint64, home Home, dirty bool) (Victim, bool) {
	if i := m.find(s, addr); i >= 0 {
		m.promote(s, i)
		if dirty {
			m.sets[s][0].dirty = true
		}
		return Victim{}, false
	}
	set := append([]modelLine{{addr: addr, home: home, dirty: dirty}}, m.sets[s]...)
	if len(set) > m.ways {
		v := set[m.ways]
		m.sets[s] = set[:m.ways]
		return Victim{Addr: v.addr, Home: v.home, Dirty: v.dirty}, true
	}
	m.sets[s] = set
	return Victim{}, false
}

func (m *lruModel) remove(s int, addr uint64) (found, dirty bool) {
	i := m.find(s, addr)
	if i < 0 {
		return false, false
	}
	set := m.sets[s]
	dirty = set[i].dirty
	m.sets[s] = append(set[:i], set[i+1:]...)
	return true, dirty
}

// engineOrder decodes cache set s's resident lines in recency order (MRU
// first) from the packed order word — the exact structure the model keeps.
func engineOrder(c *Cache, s int) []modelLine {
	if c.words == nil {
		return nil
	}
	var out []modelLine
	ord := c.meta[sideWords*s+2]
	set := c.words[s*c.ways : (s+1)*c.ways]
	for j := 0; j < c.ways; j++ {
		p := int(ord >> (4 * uint(j)) & 15)
		if p >= c.ways || set[p] == 0 {
			continue
		}
		w := set[p]
		out = append(out, modelLine{
			addr:  (w&ptagMask - 1) * LineBytes,
			home:  unpackHome(w),
			dirty: w&dirtyFlag != 0,
		})
	}
	return out
}

// requireSameOrder compares the engine's decoded recency order against the
// model, set by set, and checks two invariants: valid lines form a prefix of
// the recency order (no hole may precede a resident line), and the
// fingerprint planes mirror the words (sidecarDiff).
func requireSameOrder(t *testing.T, c *Cache, m *lruModel, step int) {
	t.Helper()
	if d := sidecarDiff(c); d != "" {
		t.Fatalf("step %d: %s", step, d)
	}
	for s := 0; s < c.setCount; s++ {
		got := engineOrder(c, s)
		want := m.sets[s]
		if len(got) != len(want) {
			t.Fatalf("step %d set %d: %d resident, model has %d (got %v want %v)",
				step, s, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("step %d set %d pos %d: %+v, model %+v", step, s, i, got[i], want[i])
			}
		}
		if c.words != nil {
			// Prefix invariant: every position past the resident count must
			// name an empty or dead slot.
			ord := c.meta[sideWords*s+2]
			set := c.words[s*c.ways : (s+1)*c.ways]
			for j := len(want); j < c.ways; j++ {
				p := int(ord >> (4 * uint(j)) & 15)
				if p < c.ways && set[p] != 0 {
					t.Fatalf("step %d set %d: resident slot %d at position %d past the %d-line prefix",
						step, s, p, j, len(want))
				}
			}
		}
	}
}

// driveModel applies one decoded operation to both the engine and the model
// and fails on any observable divergence.
func driveModel(t *testing.T, c *Cache, m *lruModel, op int, addr uint64, step int) {
	t.Helper()
	s := int(c.setIndex(addr))
	switch op {
	case 0, 1: // read / write lookup
		write := op == 1
		want := m.lookup(s, addr, write)
		if got := c.Lookup(addr, write); got != want {
			t.Fatalf("step %d: Lookup(%#x, write=%v) = %v, model %v", step, addr, write, got, want)
		}
	case 2: // insert (mixed homes and dirty bits, derived from the address)
		home := Home{Kind: HomeKind(addr >> 6 & 1), Node: int(addr >> 7 & 3)}
		dirty := addr>>9&1 != 0
		wantV, wantOK := m.insert(s, addr, home, dirty)
		gotV, gotOK := c.Insert(addr, home, dirty)
		if gotOK != wantOK || gotV != wantV {
			t.Fatalf("step %d: Insert(%#x) = %+v,%v, model %+v,%v", step, addr, gotV, gotOK, wantV, wantOK)
		}
	case 3: // probe-remove
		wantF, wantD := m.remove(s, addr)
		gotF, gotD := c.ProbeRemove(addr)
		if gotF != wantF || gotD != wantD {
			t.Fatalf("step %d: ProbeRemove(%#x) = %v,%v, model %v,%v", step, addr, gotF, gotD, wantF, wantD)
		}
	}
}

// TestRecencyMatchesListLRU is the randomized model check: for every
// associativity the engine supports, a long random mix of lookups, inserts
// and removals must leave the packed engine in exactly the state of the
// reference list LRU after every single step. A second stream of operations
// on a collision pool (fingerprint_test.go) is mixed in, and every
// associativity must meet each fingerprint collision case.
func TestRecencyMatchesListLRU(t *testing.T) {
	for ways := 1; ways <= MaxWays; ways++ {
		const sets = 8
		c := NewCache(int64(sets*ways)*LineBytes, ways)
		m := newLRUModel(ways)
		rng := sim.NewRng(uint64(1000 + ways))
		// A small address space keeps the sets under constant pressure.
		space := uint64(sets * ways * 3)
		pool := collisionPool(t, c, space)
		mix := sim.NewRng(uint64(2000 + ways))
		var seen fpCase
		for step := 0; step < 20000; step++ {
			op := rng.Intn(4)
			addr := uint64(rng.Intn(int(space))) * LineBytes
			seen |= fpCasesBefore(c, addr)
			driveModel(t, c, m, op, addr, step)
			if mix.Intn(3) == 0 {
				op, addr := mix.Intn(4), pool[mix.Intn(len(pool))]
				seen |= fpCasesBefore(c, addr)
				driveModel(t, c, m, op, addr, step)
			}
			if step%64 == 0 || step > 19900 {
				requireSameOrder(t, c, m, step)
			}
		}
		requireSameOrder(t, c, m, 20000)
		want := 0
		for s := 0; s < sets; s++ {
			want += len(m.sets[s])
		}
		if got := c.Occupancy(); got != want {
			t.Fatalf("ways %d: occupancy %d, model %d", ways, got, want)
		}
		wantCases := allFPCases
		if ways == 1 {
			wantCases &^= caseHitAboveTwin // a one-way set holds no twin beside a hit
		}
		if seen&wantCases != wantCases {
			t.Errorf("ways %d: probes met %v, want every case of %v", ways, seen, wantCases)
		}
	}
}

// FuzzRecency drives a single-set cache (every line collides) from
// fuzzer-chosen operation bytes and cross-checks the model after every step:
// the adversarial schedule the fuzzer searches for is exactly the
// mid-permutation removal/refill churn that broke naive order encodings.
func FuzzRecency(f *testing.F) {
	// Seed: 8 ways; fill beyond capacity, promote mid-order lines, remove a
	// mid-permutation line (ordRemove with interior position), then refill —
	// the path where a freed slot must surface as the next fill target.
	seed := []byte{8}
	for _, line := range []byte{1, 2, 3, 4, 5, 6, 7, 8, 9} {
		seed = append(seed, 0x80|line) // inserts
	}
	seed = append(seed, 0x04, 0x45)             // read 4, write 5: promote interior
	seed = append(seed, 0xc6, 0xc3)             // probe-remove 6 and 3 mid-permutation
	seed = append(seed, 0x8a, 0x8b, 0x8c, 0x8d) // refill through the freed slots
	f.Add(seed)
	f.Add([]byte{1, 0x81, 0x82, 0x01, 0xc1, 0x81})
	f.Add([]byte{16, 0x80, 0x81, 0xc0, 0x41, 0x82})
	// Fingerprint twins and single-plane matches in one set.
	f.Add(collisionSeed())

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		replayRecency(t, data)
	})
}

// replayRecency runs one FuzzRecency input: data[0] picks the associativity
// of a single-set cache (lines/ways == 1, so every address collides and the
// order word carries all the state), and each following byte is an
// operation (top two bits) on one of the 64 fuzzLines (low six). The model
// is cross-checked after every step; the result is the fingerprint
// collision cases the probes met.
func replayRecency(t *testing.T, data []byte) fpCase {
	t.Helper()
	ways := int(data[0])%MaxWays + 1
	c := NewCache(int64(ways)*LineBytes, ways)
	m := newLRUModel(ways)
	var seen fpCase
	for step, b := range data[1:] {
		op := int(b >> 6)
		addr := fuzzLines[b&63] * LineBytes
		seen |= fpCasesBefore(c, addr)
		driveModel(t, c, m, op, addr, step)
		requireSameOrder(t, c, m, step)
	}
	return seen
}
