package cache

import (
	"fmt"
	"math/bits"
)

// Packed tag-store engine.
//
// Each line slot is one 64-bit word instead of the historical 40-byte way
// struct:
//
//	bits 0–58   tag+1 (addr/LineBytes never exceeds 2^58, so +1 fits; a
//	            zero word means an empty slot and zeroed slabs start valid)
//	bit  59     dirty
//	bit  60     home kind (set = HomeRemote)
//	bits 61–63  home node
//
//	 63      61  60    59     58                                        0
//	[ node (3) ][kind][dirty][               tag+1 (59)                  ]
//
// The node field caps Home.Node at 7; the modeled SPR part has at most four
// SNC nodes, and packWord panics loudly if a caller ever exceeds the packed
// range rather than corrupting routing.
//
// Recency is a packed permutation: each set carries one 64-bit order word
// whose nibble j holds the physical slot at recency position j — position 0
// is the MRU line, position ways-1 the LRU victim. Lines never move between
// physical slots; every recency operation is a handful of branchless
// shift/mask instructions on the order word:
//
//   - a hit promotes its slot to position 0 by SWAR-locating the slot's
//     nibble and sliding the younger nibbles up one position (ordPromote);
//   - a fill overwrites the slot named by the LRU nibble and rotates it to
//     the front (the fill reads exactly one slot word — the displaced
//     victim — and writes one);
//   - a removal slides the older nibbles down and parks the freed slot at
//     the LRU position, keeping empty slots at the logical tail (ordRemove).
//
// The order word encodes the same total order the historical stamp-based LRU
// (and the circular-cursor engine that replaced it) maintained, so every
// lookup, fill and eviction decision is identical — the golden-table corpus
// and the randomized model-check against a reference list LRU
// (lru_model_test.go) prove it. Nibbles at positions >= ways are dead: they
// start above every live slot index and promotion scans take the lowest
// match, so stale values shifted into them can never shadow a live slot.
//
// Probing never scans the ways. Each set carries two sidecar fingerprint
// planes, one 64-bit word each, holding a 4-bit hash nibble per physical
// slot (slot i at bits 4i..4i+3): plane A takes the line hash's bits 28–31,
// plane B its bits 32–35, so together they are an 8-bit fingerprint. A probe
// XORs each plane against its probed nibble replicated 16 times, extracts
// each plane's zero-nibble positions with the classic SWAR trick and ANDs
// the two masks, so a definite miss costs two sidecar loads and a handful of
// ALU ops. A full 16-way set yields about 1/16 of a false candidate per
// probe, where one plane alone would yield about one, each a tag load and
// a mispredicted loop exit. The megabytes of tag words are read only to
// verify the (almost always correct) candidates. Because hits no
// longer move words, a hit writes nothing but the order word.
//
// A set's sidecar is three consecutive words of its cache's meta array:
// meta[3s] is plane A, meta[3s+1] plane B and meta[3s+2] the order word.
// The helpers below take the three as one slice (side), so a probe, its
// recency update and a fill touch one 24-byte run, not scattered words.

const (
	tagBits    = 59
	ptagMask   = uint64(1)<<tagBits - 1
	dirtyFlag  = uint64(1) << tagBits
	remoteFlag = uint64(1) << (tagBits + 1)
	nodeShift  = tagBits + 2
	// MaxHomeNode is the largest Home.Node the packed word can route.
	MaxHomeNode = 7

	// MaxWays is the largest associativity the engine supports: each
	// fingerprint plane and the recency order word hold one 4-bit nibble per
	// slot in a single 64-bit word. NewCache rejects anything larger.
	MaxWays = 16

	// sideWords is the length of a set's sidecar: fingerprint planes A and
	// B, then the order word.
	sideWords = 3

	// fibMul is the multiplicative hash shared by set indexing (high bits),
	// slice routing (low bits) and the fingerprint (middle bits).
	fibMul = 0x9e3779b97f4a7c15

	// fpShift positions the 8-bit fingerprint within the line hash, away
	// from both the set-index bits (top) and the slice-route bits (bottom).
	fpShift = 28

	swarLow  = 0x1111111111111111
	swarHigh = 0x8888888888888888

	// identityOrder is a fresh set's recency permutation: slot j at position
	// j. Any permutation is valid for an all-empty set (inserts fill from
	// the LRU position), but the identity keeps the dead nibbles above every
	// live slot index until rotations retire them.
	identityOrder = uint64(0xfedcba9876543210)
)

// packWord encodes a line's tag, home and dirty bit into its slot word.
func packWord(ptag uint64, home Home, dirty bool) uint64 {
	if uint(home.Node) > MaxHomeNode {
		panic(fmt.Sprintf("cache: home node %d exceeds packed limit %d", home.Node, MaxHomeNode))
	}
	w := ptag | uint64(home.Node)<<nodeShift
	if dirty {
		w |= dirtyFlag
	}
	if home.Kind == HomeRemote {
		w |= remoteFlag
	}
	return w
}

// unpackHome reconstructs a line's Home from its word.
func unpackHome(w uint64) Home {
	kind := HomeLocalDDR
	if w&remoteFlag != 0 {
		kind = HomeRemote
	}
	return Home{Kind: kind, Node: int(w >> nodeShift)}
}

// fingerprint extracts a line hash's 8-bit fingerprint: plane A's nibble in
// its low four bits (hash bits 28–31), plane B's in its high four (32–35).
func fingerprint(hash uint64) uint64 { return hash >> fpShift & 0xff }

// replicate copies a fingerprint's plane A and plane B nibbles into every
// nibble of a word each: the probe operands of findIn, hoisted by callers
// that probe several levels with one fingerprint.
func replicate(fp uint64) (repA, repB uint64) { return (fp & 15) * swarLow, (fp >> 4) * swarLow }

// findIn returns the way holding ptag, or -1, by SWAR-matching the
// replicated fingerprint nibbles against the set's two planes and verifying
// candidates against the words. Empty ways have both nibbles 0 and word 0,
// so a probe whose nibbles are both 0 may visit empty candidates but the
// verify rejects them.
func findIn(set, side []uint64, repA, repB, ptag uint64) int {
	b := side[1] ^ repB
	a := side[0] ^ repA
	// Bits 4i+3 flag ways whose nibbles both match (the borrow of each
	// plane's SWAR subtract can add false flags above a match; verification
	// filters both those and genuine fingerprint collisions).
	m := (a - swarLow) &^ a & (b - swarLow) &^ b & swarHigh
	for m != 0 {
		i := bits.TrailingZeros64(m) >> 2
		if i >= len(set) {
			return -1
		}
		if set[i]&ptagMask == ptag {
			return i
		}
		m &= m - 1
	}
	return -1
}

// lowNibbles masks the low k nibbles of a packed word (k <= 16; k == 16
// yields all ones via Go's defined overflow of the shift).
func lowNibbles(k int) uint64 { return uint64(1)<<(4*uint(k)) - 1 }

// nibblePos returns the lowest position whose nibble equals val. The SWAR
// zero-detect has no false flags below the lowest true match (borrows only
// start at a matching nibble), so the result is exact whenever val is
// present — which the permutation invariant guarantees for live slots.
func nibblePos(word, val uint64) int {
	x := word ^ val*swarLow
	return bits.TrailingZeros64((x-swarLow)&^x&swarHigh) >> 2
}

// ordPromote moves slot p to recency position 0: nibbles younger than p's
// position slide up one, everything older is untouched. Branchless — the
// position comes from a SWAR scan, the splice from three masks.
func ordPromote(ord uint64, p int) uint64 {
	j := nibblePos(ord, uint64(p))
	return ord&^lowNibbles(j+1) | ord&lowNibbles(j)<<4 | uint64(p)
}

// ordRemove parks slot p at the LRU position: nibbles older than p's
// position slide down one and p becomes position ways-1, keeping empty slots
// at the logical tail. lruShift is 4*(ways-1).
func ordRemove(ord uint64, p int, lruShift uint) uint64 {
	j := nibblePos(ord, uint64(p))
	low := lowNibbles(j)
	return (ord&low|ord>>4&^low)&^(15<<lruShift) | uint64(p)<<lruShift
}

// materialize allocates a standalone cache's tag slab and sidecars on first
// fill (a hierarchy carves its caches' slabs before any fill, so for them it
// is a no-op). Zero words are empty slots, so only the order words need an
// initialization pass.
func (c *Cache) materialize() {
	if c.words == nil {
		c.words = make([]uint64, c.setCount*c.ways)
		c.meta = make([]uint64, sideWords*c.setCount)
		initOrders(c.meta)
	}
}

// initOrders sets every order word of a meta array to identityOrder.
func initOrders(meta []uint64) {
	for i := 2; i < len(meta); i += sideWords {
		meta[i] = identityOrder
	}
}

// set returns the slot words and the sidecar of the set holding the hashed
// line.
func (c *Cache) set(hash uint64) (set, side []uint64) {
	s := int(hash >> c.shift)
	b := s * c.ways
	return c.words[b : b+c.ways], c.meta[sideWords*s : sideWords*s+sideWords]
}

// fillSlot writes w, whose fingerprint is fp, as its set's new MRU line into
// the LRU slot named by the order word, returning the displaced word — zero
// if that slot was empty (empty slots sit at the logical tail), otherwise
// the evicted LRU line. Exactly one slot word is read and written, and the
// order word rotates the LRU slot (position ways-1) to position 0; the
// nibble shifted past position ways-1 is dead by the layout contract.
// Raw-array form shared by the Cache methods and the stream loop, which
// needs it inlined: it sits just under the compiler's inlining budget, so
// the rotation is written out rather than called.
func fillSlot(set, side []uint64, w, fp uint64, lruShift uint) (displaced uint64) {
	ord := side[2]
	p := ord >> lruShift & 15
	displaced = set[p]
	set[p] = w
	sh := 4 * p
	side[0] = side[0]&^(15<<sh) | fp&15<<sh
	side[1] = side[1]&^(15<<sh) | fp>>4<<sh
	side[2] = ord<<4 | p
	return displaced
}

// clearSlot deletes the line at physical slot p, clearing its word and both
// fingerprint nibbles and parking the freed slot at the logical tail.
func clearSlot(set, side []uint64, p int, lruShift uint) {
	set[p] = 0
	sh := 4 * uint(p)
	side[0] &^= 15 << sh
	side[1] &^= 15 << sh
	side[2] = ordRemove(side[2], p, lruShift)
}

// promote moves the line at physical slot p to the MRU position. Only the
// order word changes — the line stays in its slot and the fingerprint planes
// are untouched.
func promote(side []uint64, p int) { side[2] = ordPromote(side[2], p) }

// Lookup probes for addr. On a hit it promotes the line to the set's MRU
// position, applies the dirty bit for writes, and returns true.
func (c *Cache) Lookup(addr uint64, write bool) bool {
	if c.words == nil {
		c.Misses++
		return false
	}
	line := addr / LineBytes
	hash := line * fibMul
	set, side := c.set(hash)
	repA, repB := replicate(fingerprint(hash))
	i := findIn(set, side, repA, repB, line+1)
	if i < 0 {
		c.Misses++
		return false
	}
	promote(side, i)
	if write {
		set[i] |= dirtyFlag
	}
	c.Hits++
	return true
}

// Insert fills addr into the cache, returning the displaced victim (if any).
// A line already present is promoted to MRU and its dirty bit merged.
func (c *Cache) Insert(addr uint64, home Home, dirty bool) (Victim, bool) {
	c.materialize()
	line := addr / LineBytes
	hash := line * fibMul
	set, side := c.set(hash)
	fp := fingerprint(hash)
	repA, repB := replicate(fp)
	ptag := line + 1

	if i := findIn(set, side, repA, repB, ptag); i >= 0 {
		// Already present: promote, keep the original home, merge dirty.
		promote(side, i)
		if dirty {
			set[i] |= dirtyFlag
		}
		return Victim{}, false
	}
	displaced := fillSlot(set, side, packWord(ptag, home, dirty), fp, c.lruShift)
	if displaced == 0 {
		return Victim{}, false
	}
	c.Evictions++
	return Victim{
		Addr:  (displaced&ptagMask - 1) * LineBytes,
		Home:  unpackHome(displaced),
		Dirty: displaced&dirtyFlag != 0,
	}, true
}

// remove deletes addr from its set if present and reports whether it was
// found and whether it was dirty.
func (c *Cache) remove(addr uint64) (found, dirty bool) {
	if c.words == nil {
		return false, false
	}
	line := addr / LineBytes
	hash := line * fibMul
	set, side := c.set(hash)
	repA, repB := replicate(fingerprint(hash))
	i := findIn(set, side, repA, repB, line+1)
	if i < 0 {
		return false, false
	}
	w := set[i]
	clearSlot(set, side, i, c.lruShift)
	return true, w&dirtyFlag != 0
}

// ProbeRemove is the LLC victim-cache operation: one combined probe that, on
// a hit, removes the line (it is being promoted back into a private cache)
// and reports its dirty bit. It updates Hits/Misses exactly as a Lookup
// followed by an Invalidate used to, but touches the set once.
func (c *Cache) ProbeRemove(addr uint64) (found, dirty bool) {
	found, dirty = c.remove(addr)
	if found {
		c.Hits++
	} else {
		c.Misses++
	}
	return found, dirty
}

// Invalidate removes addr if present, returning whether it was found and
// whether it was dirty. Unlike ProbeRemove it leaves the hit/miss counters
// alone (it models an explicit flush, not a demand access).
func (c *Cache) Invalidate(addr uint64) (found, dirty bool) {
	return c.remove(addr)
}

// Occupancy returns the number of valid lines (O(capacity); intended for
// tests and diagnostics).
func (c *Cache) Occupancy() int {
	n := 0
	for _, w := range c.words {
		if w != 0 {
			n++
		}
	}
	return n
}

// Flush invalidates every line (clflush of the whole cache, as memo does
// before each latency measurement). The order words keep their current
// permutation — any permutation is valid for an all-empty cache, since
// inserts always fill from the LRU position.
func (c *Cache) Flush() {
	clear(c.words)
	for i := 0; i < len(c.meta); i += sideWords {
		c.meta[i], c.meta[i+1] = 0, 0
	}
}
