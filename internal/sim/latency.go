package sim

import "slices"

// SortedNanoseconds sorts lats ascending in place and appends them to dst in
// that order as float64 nanoseconds (Time.Nanoseconds). The conversion is
// monotone, so the appended values equal sort.Float64s of the converted
// latencies bit for bit, and so does every sum or percentile taken over
// them. Sorting the integer picoseconds instead of the floats lets it use a
// radix sort: one pass per 8-bit digit in which the values differ.
func SortedNanoseconds(dst []float64, lats []Time) []float64 {
	sortTimes(lats)
	dst = slices.Grow(dst, len(lats))
	for _, t := range lats {
		dst = append(dst, t.Nanoseconds())
	}
	return dst
}

// radixMinLen is the length below which sortTimes uses insertion sort.
const radixMinLen = 48

// sortTimes sorts ts ascending: an LSD radix sort over the bits of each
// value with its sign flipped (so negative times order first), skipping the
// digits every value shares.
func sortTimes(ts []Time) {
	if len(ts) < radixMinLen {
		for i := 1; i < len(ts); i++ {
			for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
				ts[j], ts[j-1] = ts[j-1], ts[j]
			}
		}
		return
	}
	const flip = 1 << 63
	first := uint64(ts[0]) ^ flip
	var differ uint64
	for _, t := range ts {
		differ |= (uint64(t) ^ flip) ^ first
	}
	src, dst := ts, make([]Time, len(ts))
	var counts [256]int
	for shift := uint(0); shift < 64; shift += 8 {
		if byte(differ>>shift) == 0 {
			continue
		}
		counts = [256]int{}
		for _, t := range src {
			counts[byte((uint64(t)^flip)>>shift)]++
		}
		sum := 0
		for i, c := range counts {
			counts[i] = sum
			sum += c
		}
		for _, t := range src {
			b := byte((uint64(t) ^ flip) >> shift)
			dst[counts[b]] = t
			counts[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &ts[0] {
		copy(ts, src)
	}
}
