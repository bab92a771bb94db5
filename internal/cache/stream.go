package cache

import (
	"context"
	"fmt"
	"runtime"

	"cxlmem/internal/pool"
)

// Deterministic sharded streaming (DESIGN.md §12).
//
// Every level of the hierarchy indexes its sets from the *high* bits of the
// same Fibonacci line hash (hash >> shift), while slice routing consumes the
// low bits. So the top shardBits = 64 - max(shift) bits of the hash are a
// shared prefix of every set index the access can ever touch: its L1 set,
// its L2 set, its LLC set in whichever slice the low bits route it to — and,
// crucially, the LLC set of any L2 victim it displaces, because a victim of
// L2 set s carries the same set-index prefix as the access that evicted it.
//
// Partitioning a stream by that prefix therefore splits it into subsequences
// that touch disjoint sets at every level. Replaying each subsequence in its
// original order reproduces the serial state evolution of its sets exactly,
// for any interleaving of subsequences across workers — so the sharded
// driver below is byte-identical to the serial ReadStream by construction,
// not by tolerance. The per-cache statistic counters are the only shared
// state; they accumulate in shard-local streamCounters and merge serially.
//
// The same partition is also why sharding is profitable on a single CPU: a
// shard's sets are a contiguous 1/nShards slab region of every cache, so a
// shard-ordered replay works over a few hundred KB of resident tag state
// instead of striding randomly across megabytes of slabs.

const (
	// maxShardBits caps the shard fan-out (and the counting-sort bucket
	// arrays) regardless of how fine the smallest cache's set index is.
	maxShardBits = 10
	// minShardedLen is the stream length below which ReadStreamSharded
	// falls back to the serial loop: the partition pass only pays for
	// itself once shards hold more than a handful of accesses.
	minShardedLen = 2048
)

// streamCounters is one shard worker's private statistics sink: the fused
// loop's per-cache hit/miss/eviction tallies and the per-level histogram,
// kept local so workers never write shared counters. flushStream folds one
// into the hierarchy after the workers join.
type streamCounters struct {
	l1Hit, l1Miss, l1Evict uint64
	l2Hit, l2Miss, l2Evict uint64
	counts                 LevelCounts
	sliceHits              []uint64 // per LLC slice
	sliceMisses            []uint64
	sliceEvicts            []uint64
}

func newStreamCounters(slices int) *streamCounters {
	return &streamCounters{
		sliceHits:   make([]uint64, slices),
		sliceMisses: make([]uint64, slices),
		sliceEvicts: make([]uint64, slices),
	}
}

// flushStream folds one worker's counters into the hierarchy's per-cache
// statistics and the caller's histogram. Pure addition, so the merge order
// across workers cannot change the totals.
func (h *Hierarchy) flushStream(core int, st *streamCounters, counts *LevelCounts) {
	l1, l2 := h.l1[core], h.l2[core]
	l1.Hits += st.l1Hit
	l1.Misses += st.l1Miss
	l1.Evictions += st.l1Evict
	l2.Hits += st.l2Hit
	l2.Misses += st.l2Miss
	l2.Evictions += st.l2Evict
	for i, v := range st.sliceHits {
		if v != 0 {
			h.slices[i].Hits += v
			h.LLCHits += v
		}
	}
	for i, v := range st.sliceMisses {
		if v != 0 {
			h.slices[i].Misses += v
			h.LLCMisses += v
		}
	}
	for i, v := range st.sliceEvicts {
		if v != 0 {
			h.slices[i].Evictions += v
		}
	}
	for lvl, v := range st.counts {
		counts[lvl] += v
	}
}

// shardBits returns the width of the set-index prefix shared by every level
// a core's accesses can touch — the widest shard fan-out that still
// guarantees set-disjoint shards — or 0 when some cache has a single set
// (nothing to shard on).
func (h *Hierarchy) shardBits(core int) int {
	maxShift := h.l1[core].shift
	if s := h.l2[core].shift; s > maxShift {
		maxShift = s
	}
	if s := h.slices[0].shift; s > maxShift {
		maxShift = s
	}
	if maxShift >= 64 {
		return 0
	}
	b := 64 - int(maxShift)
	if b > maxShardBits {
		b = maxShardBits
	}
	return b
}

// ReadStreamSharded is ReadStream restructured around the set-index-prefix
// partition: the batch is counting-sorted into per-shard subsequences (kept
// in original order), each shard is replayed through the fused loop, and the
// shard-local counters merge serially afterwards. Results — cache state,
// statistics, the histogram — are byte-identical to ReadStream for every
// workers value (TestReadStreamMatchesAccess pins it); workers only
// selects the concurrent fan-out (0 = GOMAXPROCS). Even at workers=1 the
// shard-ordered replay wins: each shard's tag state is a contiguous slab
// region that stays resident in the host cache.
//
// Like every Hierarchy method, it must not be called concurrently with any
// other access to the same hierarchy (it reuses per-hierarchy scratch).
func (h *Hierarchy) ReadStreamSharded(core int, addrs []uint64, home Home, counts *LevelCounts, workers int) {
	if core < 0 || core >= h.cfg.Cores {
		panic(fmt.Sprintf("cache: core %d out of range", core))
	}
	bits := h.shardBits(core)
	if bits == 0 || len(addrs) < minShardedLen {
		h.ReadStream(core, addrs, home, counts)
		return
	}
	h.materializeAll()
	nShards := 1 << bits
	shift := uint(64 - bits)

	// Stable counting sort by shard. The backward scatter fills each shard's
	// region from its end, so forward order within a shard is the original
	// stream order — the property the byte-identity argument rests on.
	if cap(h.shardBuf) < len(addrs) {
		h.shardBuf = make([]uint64, len(addrs))
	}
	buf := h.shardBuf[:len(addrs)]
	if cap(h.shardOff) < nShards {
		h.shardOff = make([]int32, nShards)
	}
	off := h.shardOff[:nShards]
	for i := range off {
		off[i] = 0
	}
	for _, a := range addrs {
		off[(a/LineBytes*fibMul)>>shift]++
	}
	sum := int32(0)
	for s, c := range off {
		sum += c
		off[s] = sum
	}
	for i := len(addrs) - 1; i >= 0; i-- {
		a := addrs[i]
		s := (a / LineBytes * fibMul) >> shift
		off[s]--
		buf[off[s]] = a
	}
	// off[s] is now shard s's start; shard s ends where shard s+1 starts.

	rt := h.cfg.route(home)
	homeBits := packWord(0, home, false)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nShards {
		workers = nShards
	}
	// Shard class w is shards w, w+workers, w+2·workers, …, replayed into
	// its own counters; the classes are set-disjoint, so they run
	// concurrently and merge in class order. The jobs return no error and
	// the context never ends, so Run has no error to return.
	sts := make([]*streamCounters, workers)
	_ = pool.Run(context.TODO(), workers, workers, func(_ context.Context, w int) error {
		sts[w] = newStreamCounters(len(h.slices))
		for s := w; s < nShards; s += workers {
			lo := int(off[s])
			hi := len(buf)
			if s+1 < nShards {
				hi = int(off[s+1])
			}
			if lo < hi {
				h.streamFused(core, buf[lo:hi], rt, homeBits, sts[w])
			}
		}
		return nil
	})
	for _, st := range sts {
		h.flushStream(core, st, counts)
	}
}
