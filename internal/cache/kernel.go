package cache

// Monomorphized stream kernel (DESIGN.md §15).
//
// Every LLC slice of a hierarchy shares one geometry (NewHierarchy builds
// them all from one config), and materializeAll carves their slabs
// slice-major from one arena. buildKernel captures flat views of those
// slabs, so streamFused — the one stream loop, shared by ReadStream and the
// sharded driver — keeps slice geometry in registers and resolves an LLC set
// with one multiply-add instead of a per-slice pointer chase. Every route is
// a power-of-two mask (HierConfig.Validate), so the loop has no other case.
//
// The kernel is built with the arena, before any shard worker can observe
// it, and is read-only thereafter (the views alias the same arena the Cache
// structs mutate, so there is no state to keep coherent). Scalar Access is
// the independent reference the loop is tested against
// (TestReadStreamMatchesAccess, FuzzStreamMatchesAccess).

// streamKernel is the flat, slice-major view of every LLC slice's slabs plus
// their (uniform) geometry. Slice si's set s lives at flat set index
// si*sets + s.
type streamKernel struct {
	words []uint64 // all slices' tag words, slice-major
	meta  []uint64 // all slices' 3-word sidecars (plane A, plane B, order), slice-major
	sets  int      // sets per slice
	ways  int
	shift uint // per-slice set hash shift
	lru   uint // 4*(ways-1)
}

// buildKernel captures the slices' flat views. The slices lead all(), so
// their words start the arena and their sidecars start at nWords, the end
// of every cache's words.
func (h *Hierarchy) buildKernel(nWords int) {
	s0, n := h.slices[0], len(h.slices)
	h.kern = streamKernel{
		words: h.arena[:n*s0.setCount*s0.ways],
		meta:  h.arena[nWords : nWords+n*sideWords*s0.setCount],
		sets:  s0.setCount,
		ways:  s0.ways,
		shift: s0.shift,
		lru:   s0.lruShift,
	}
}

// homeBitsMask selects a word's home (kind + node) bits.
const homeBitsMask = remoteFlag | uint64(MaxHomeNode)<<nodeShift

// streamFused is the fused L1→L2→LLC probe/fill/spill loop shared by
// ReadStream and the sharded driver. All statistics go to st; cache state
// (slabs, fingerprint planes, order words) is mutated directly. Callers
// guarantee the hierarchy is materialized and that concurrent calls touch
// disjoint sets.
func (h *Hierarchy) streamFused(core int, addrs []uint64, rt sliceRoute, homeBits uint64, st *streamCounters) {
	k := &h.kern
	l1, l2 := h.l1[core], h.l2[core]
	l1w, l1m, l1ways, l1shift, l1lru := l1.words, l1.meta, l1.ways, l1.shift, l1.lruShift
	l2w, l2m, l2ways, l2shift, l2lru := l2.words, l2.meta, l2.ways, l2.shift, l2.lruShift
	llcW, llcM := k.words, k.meta
	llcSets, llcWays, llcShift, llcLru := k.sets, k.ways, k.shift, k.lru
	base, mask := rt.base, rt.mask
	var l1Hit, l1Miss, l1Evict, l2Hit, l2Miss, l2Evict uint64
	var nL1, nL2, nLLC, nMem uint64
	for _, addr := range addrs {
		line := addr / LineBytes
		ptag := line + 1
		hash := line * fibMul
		fp := fingerprint(hash)
		repA, repB := replicate(fp)

		// L1 probe (hash>>64 is 0 in Go, so a single-set cache needs no
		// special case).
		s1 := int(hash >> l1shift)
		b1 := s1 * l1ways
		set1, side1 := l1w[b1:b1+l1ways], l1m[sideWords*s1:sideWords*s1+sideWords]
		if i := findIn(set1, side1, repA, repB, ptag); i >= 0 {
			promote(side1, i)
			l1Hit++
			nL1++
			continue
		}
		l1Miss++

		// L2 probe.
		s2 := int(hash >> l2shift)
		b2 := s2 * l2ways
		set2, side2 := l2w[b2:b2+l2ways], l2m[sideWords*s2:sideWords*s2+sideWords]
		if i := findIn(set2, side2, repA, repB, ptag); i >= 0 {
			promote(side2, i)
			l2Hit++
			// Fill L1; its victims drop silently (L2 is inclusive of L1).
			if fillSlot(set1, side1, ptag|homeBits, fp, l1lru) != 0 {
				l1Evict++
			}
			nL2++
			continue
		}
		l2Miss++

		// LLC probe: the combined probe-promote-evict step against the flat
		// slice-major slabs, where one multiply-add resolves the global set.
		// A victim-cache hit removes the line (it is promoted into L1/L2
		// below, carrying its dirty bit); a miss fills from memory and never
		// reads the slice's tag words.
		si := base + int(hash&mask)
		g3 := si*llcSets + int(hash>>llcShift)
		b3 := g3 * llcWays
		set3, side3 := llcW[b3:b3+llcWays], llcM[sideWords*g3:sideWords*g3+sideWords]
		var dirtyBit uint64
		if i := findIn(set3, side3, repA, repB, ptag); i >= 0 {
			dirtyBit = set3[i] & dirtyFlag
			clearSlot(set3, side3, i, llcLru)
			st.sliceHits[si]++
			nLLC++
		} else {
			st.sliceMisses[si]++
			nMem++
		}

		// Fill the private levels; spill the L2 victim to its routed slice.
		fill := ptag | homeBits | dirtyBit
		if fillSlot(set1, side1, fill, fp, l1lru) != 0 {
			l1Evict++
		}
		victim := fillSlot(set2, side2, fill, fp, l2lru)
		if victim == 0 {
			continue
		}
		l2Evict++
		vline := victim&ptagMask - 1
		vhash := vline * fibMul
		vfp := fingerprint(vhash)
		vrepA, vrepB := replicate(vfp)
		var vi int
		if victim&homeBitsMask == homeBits {
			// The common mlc case: the victim shares the stream's home, so
			// its routing is already resolved.
			vi = base + int(vhash&mask)
		} else {
			vi = h.sliceFor(vline*LineBytes, unpackHome(victim))
		}
		vg := vi*llcSets + int(vhash>>llcShift)
		vb := vg * llcWays
		vset, vside := llcW[vb:vb+llcWays], llcM[sideWords*vg:sideWords*vg+sideWords]
		// Spill with full Insert semantics: another core's copy of the line
		// may already sit in the slice, in which case it is refreshed with
		// the dirty bits merged and the resident home preserved.
		if vp := findIn(vset, vside, vrepA, vrepB, vline+1); vp >= 0 {
			promote(vside, vp)
			vset[vp] |= victim & dirtyFlag
			continue
		}
		if fillSlot(vset, vside, victim, vfp, llcLru) != 0 {
			st.sliceEvicts[vi]++
		}
	}

	st.l1Hit += l1Hit
	st.l1Miss += l1Miss
	st.l1Evict += l1Evict
	st.l2Hit += l2Hit
	st.l2Miss += l2Miss
	st.l2Evict += l2Evict
	st.counts[L1] += nL1
	st.counts[L2] += nL2
	st.counts[LLC] += nLLC
	st.counts[Memory] += nMem
}
