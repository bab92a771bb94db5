package sim

import (
	"math/bits"
	"slices"
)

// TimeSorter sorts latency slices with an LSD radix sort and keeps the
// sort's scatter buffer between calls, so a caller that sorts repeatedly
// (tpp-timeline, once per epoch) allocates it once. The zero value is ready
// to use; a TimeSorter is not safe for concurrent use.
type TimeSorter struct {
	buf []Time
}

// SortedNanoseconds sorts lats ascending in place and appends them to dst in
// that order as float64 nanoseconds (Time.Nanoseconds). The conversion is
// monotone, so the appended values equal sort.Float64s of the converted
// latencies bit for bit, and so does every sum or percentile taken over
// them. Sorting the integer picoseconds instead of the floats lets it use a
// radix sort: one pass to count every 8-bit digit, then one scatter pass per
// digit in which the values differ.
func (s *TimeSorter) SortedNanoseconds(dst []float64, lats []Time) []float64 {
	s.sort(lats)
	dst = slices.Grow(dst, len(lats))
	for _, t := range lats {
		dst = append(dst, t.Nanoseconds())
	}
	return dst
}

// radixMinLen is the length below which sorts use insertion sort.
const radixMinLen = 48

// insertionSort sorts a short ts ascending.
func insertionSort(ts []Time) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

// sort sorts ts ascending: an LSD radix sort over the bits of each value
// with its sign flipped (so negative times order first). One read pass
// counts all eight digits; a digit whose count puts every value in one
// bucket is the same in every value and gets no scatter pass.
func (s *TimeSorter) sort(ts []Time) {
	if len(ts) < radixMinLen {
		insertionSort(ts)
		return
	}
	const flip = 1 << 63
	var counts [8][256]int
	for _, t := range ts {
		k := uint64(t) ^ flip
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	if cap(s.buf) < len(ts) {
		s.buf = make([]Time, len(ts))
	}
	src, dst := ts, s.buf[:len(ts)]
	first := uint64(ts[0]) ^ flip
	for d := range counts {
		shift := 8 * uint(d)
		c := &counts[d]
		if c[byte(first>>shift)] == len(ts) {
			continue
		}
		sum := 0
		for i, n := range c {
			c[i] = sum
			sum += n
		}
		for _, t := range src {
			b := byte((uint64(t) ^ flip) >> shift)
			dst[c[b]] = t
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &ts[0] {
		copy(ts, src)
	}
}

// selectBits is log2 of the number of buckets OrderStats splits a range of
// values into per pass.
const selectBits = 11

// OrderStats sets out[i] to the ranks[i]-th smallest value of ts, counting
// from 0: the value a sort would put at index ranks[i]. ranks must be
// ascending and below len(ts), and out as long as ranks. It may reorder ts.
// A pass splits the values' range into 2^11 equal buckets and counts them;
// one more read copies out the values of the buckets that hold a wanted
// rank, and each such bucket, a range 2^11 times narrower, is split again
// until it is short or holds a single value.
func OrderStats(ts []Time, ranks []int, out []Time) {
	orderStats(ts, ranks, 0, out)
}

// orderStats is OrderStats for the ranks ranks[i] - base of ts.
func orderStats(ts []Time, ranks []int, base int, out []Time) {
	if len(ts) < radixMinLen {
		insertionSort(ts)
		for i, r := range ranks {
			out[i] = ts[r-base]
		}
		return
	}
	lo, hi := ts[0], ts[0]
	for _, t := range ts[1:] {
		lo, hi = min(lo, t), max(hi, t)
	}
	if lo == hi {
		for i := range out {
			out[i] = lo
		}
		return
	}
	// A value's bucket is its offset above lo, shifted to selectBits bits;
	// the unsigned difference cannot overflow.
	shift := max(bits.Len64(uint64(hi)-uint64(lo))-selectBits, 0)
	var counts [1 << selectBits]int
	for _, t := range ts {
		counts[(uint64(t)-uint64(lo))>>shift]++
	}
	// A group is a bucket holding wanted ranks: the ranks ranks[i:j], of
	// which the bucket's smallest value has rank start.
	type group struct{ bucket, start, i, j int }
	var groups []group
	start := base
	for b, i := 0, 0; i < len(ranks); b++ {
		end := start + counts[b]
		j := i
		for j < len(ranks) && ranks[j] < end {
			j++
		}
		if j > i {
			groups = append(groups, group{b, start, i, j})
			i = j
		}
		start = end
	}
	// counts becomes the map from a bucket to 1 + its group, 0 for none.
	in := make([][]Time, len(groups))
	for g, gr := range groups {
		in[g] = make([]Time, 0, counts[gr.bucket])
	}
	counts = [1 << selectBits]int{}
	for g, gr := range groups {
		counts[gr.bucket] = g + 1
	}
	for _, t := range ts {
		if g := counts[(uint64(t)-uint64(lo))>>shift]; g != 0 {
			in[g-1] = append(in[g-1], t)
		}
	}
	for g, gr := range groups {
		orderStats(in[g], ranks[gr.i:gr.j], gr.start, out[gr.i:gr.j])
	}
}
