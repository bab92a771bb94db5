package cache

import (
	"fmt"
	"strings"
	"testing"
)

// Fingerprint collisions. A set's two sidecar planes hold an 8-bit
// fingerprint per slot, so the model check's small address spaces rarely
// put two lines with the same fingerprint into one set — and findIn's
// reject-then-continue path would go untested. The helpers below choose
// lines by hash so that they pair up within a set on both nibbles, on plane
// A only or on plane B only, and classify every probe by the collisions it
// meets in the set's state before it runs.

// fpCase flags one kind of collision a probe can meet.
type fpCase uint8

const (
	// caseTwin: another resident line has both of the probed line's nibbles,
	// so findIn must load its word, reject it and go on.
	caseTwin fpCase = 1 << iota
	// casePlaneAOnly: another resident line matches plane A only; ANDing
	// the planes' masks drops it.
	casePlaneAOnly
	// casePlaneBOnly: another resident line matches plane B only.
	casePlaneBOnly
	// caseHitAboveTwin: the probed line is resident and a twin sits in a
	// lower slot, so the hit comes only after a rejected candidate.
	caseHitAboveTwin

	allFPCases = caseTwin | casePlaneAOnly | casePlaneBOnly | caseHitAboveTwin
)

func (f fpCase) String() string {
	var names []string
	for _, c := range []struct {
		bit  fpCase
		name string
	}{
		{caseTwin, "twin"}, {casePlaneAOnly, "plane-A-only"},
		{casePlaneBOnly, "plane-B-only"}, {caseHitAboveTwin, "hit-above-twin"},
	} {
		if f&c.bit != 0 {
			names = append(names, c.name)
		}
	}
	return "{" + strings.Join(names, ",") + "}"
}

// hashNibbles returns a line's plane A and plane B nibbles: bits 28–31 and
// 32–35 of its Fibonacci hash. Written out rather than calling fingerprint,
// so the checks below do not trust the code they check.
func hashNibbles(line uint64) (a, b uint64) {
	h := line * fibMul
	return h >> 28 & 15, h >> 32 & 15
}

// relate classifies two distinct lines' fingerprints: caseTwin,
// casePlaneAOnly, casePlaneBOnly, or 0 when neither nibble matches.
func relate(x, y uint64) fpCase {
	xa, xb := hashNibbles(x)
	ya, yb := hashNibbles(y)
	switch {
	case xa == ya && xb == yb:
		return caseTwin
	case xa == ya:
		return casePlaneAOnly
	case xb == yb:
		return casePlaneBOnly
	}
	return 0
}

// fpCasesBefore classifies a probe of addr against c's current state: the
// collisions it meets among the lines resident in addr's set.
func fpCasesBefore(c *Cache, addr uint64) fpCase {
	if c.words == nil {
		return 0
	}
	line := addr / LineBytes
	s := int(c.setIndex(addr))
	var seen fpCase
	for _, w := range c.words[s*c.ways : (s+1)*c.ways] {
		switch {
		case w == 0:
		case w&ptagMask == line+1:
			if seen&caseTwin != 0 {
				seen |= caseHitAboveTwin
			}
		default:
			seen |= relate(line, w&ptagMask-1)
		}
	}
	return seen
}

// partner returns the first line from line from up that shares anchor's
// set in c and relates to anchor as rel. A twin turns up about once in
// 256 × (c's set count) lines, so the search bound is never reached.
func partner(c *Cache, anchor, from uint64, rel fpCase) (uint64, bool) {
	s := c.setIndex(anchor * LineBytes)
	for y := from; y < from+1<<20; y++ {
		if y != anchor && c.setIndex(y*LineBytes) == s && relate(anchor, y) == rel {
			return y, true
		}
	}
	return 0, false
}

// collisionPool returns the addresses of four anchor lines from line base
// up, each with a twin, a plane-A-only and a plane-B-only partner in its
// set of c.
func collisionPool(t *testing.T, c *Cache, base uint64) []uint64 {
	var pool []uint64
	for anchor := base; anchor < base+4; anchor++ {
		pool = append(pool, anchor*LineBytes)
		for _, rel := range []fpCase{caseTwin, casePlaneAOnly, casePlaneBOnly} {
			y, ok := partner(c, anchor, anchor+1, rel)
			if !ok {
				t.Fatalf("no %v partner for line %d", rel, anchor)
			}
			pool = append(pool, y*LineBytes)
		}
	}
	return pool
}

// fuzzLines maps FuzzRecency's six-bit line operand to a line. Operands
// 0..31 are lines 0..31; operand 32+j is a partner of line j — a twin when
// j%3 == 0, a plane-A-only match when j%3 == 1, a plane-B-only match when
// j%3 == 2. The fuzz cache has a single set, so every pair shares it; lines
// 0..63 alone hold no twin, because the multiplicative hash spreads
// consecutive lines too evenly.
var fuzzLines = func() (lines [64]uint64) {
	oneSet := NewCache(LineBytes, 1)
	rels := [3]fpCase{caseTwin, casePlaneAOnly, casePlaneBOnly}
	for j := uint64(0); j < 32; j++ {
		y, ok := partner(oneSet, j, 64, rels[j%3])
		if !ok {
			panic(fmt.Sprintf("no %v partner for line %d", rels[j%3], j))
		}
		lines[j], lines[32+j] = j, y
	}
	return lines
}()

// collisionSeed is a FuzzRecency input whose probes meet every fpCase, built
// on fuzzLines' pairs (0, 32), (1, 33) and (2, 34).
func collisionSeed() []byte {
	const ways = 8
	const read, ins, del = 0x00, 0x80, 0xc0
	return []byte{
		ways - 1,
		ins | 0, ins | 32, // fills run from the top slot down: 32 sits below 0
		read | 0,           // a hit above its twin
		ins | 1, read | 33, // a miss past a plane-A-only match
		ins | 2, read | 34, // a miss past a plane-B-only match
		del | 0, read | 0, // remove above the twin, then miss past it
		ins | 0, read | 0, // refill through the freed slot, hit again
	}
}

// sidecarDiff checks that every set's fingerprint planes mirror its slot
// words: a resident slot's two nibbles equal its tag's hash nibbles, and an
// empty slot's nibbles (and those of every position past the ways) are
// zero. It describes the first set that breaks this, or returns "".
func sidecarDiff(c *Cache) string {
	if c.words == nil {
		return ""
	}
	for s := 0; s < c.setCount; s++ {
		var wantA, wantB uint64
		for p, w := range c.words[s*c.ways : (s+1)*c.ways] {
			if w != 0 {
				a, b := hashNibbles(w&ptagMask - 1)
				wantA |= a << (4 * p)
				wantB |= b << (4 * p)
			}
		}
		side := c.meta[sideWords*s : sideWords*s+2]
		if side[0] != wantA || side[1] != wantB {
			return fmt.Sprintf("set %d: fingerprint planes %#x/%#x, its words imply %#x/%#x",
				s, side[0], side[1], wantA, wantB)
		}
	}
	return ""
}

// TestRecencyCollisionSeed pins that FuzzRecency's collision seed reaches
// every collision case, so the fuzz target's seed corpus always drives
// findIn past a rejected candidate.
func TestRecencyCollisionSeed(t *testing.T) {
	if seen := replayRecency(t, collisionSeed()); seen != allFPCases {
		t.Errorf("collision seed reached %v, want %v", seen, allFPCases)
	}
}
