package cache

// The working-set model behind mlc's analytic buffer-latency path
// (internal/mlc/analytic.go, DESIGN.md §12). Che's approximation gives an
// LRU cache of C items, serving the independent reference model, a
// characteristic time T with sum_i (1 - exp(-p_i*T)) = C. Under uniform
// popularity every item shares one p, so the solution collapses to a hit
// rate of C/n — the only case any caller runs, since a buffer-latency
// sweep touches its buffer uniformly at random. The Hierarchy simulator
// cross-checks it in tests.

// UniformLRUHitRate returns the hit rate of an LRU cache under uniform
// popularity: simply capacity/n clamped to [0, 1] (Che's approximation
// degenerates to this).
func UniformLRUHitRate(n int, capacityItems int) float64 {
	if n <= 0 || capacityItems <= 0 {
		return 0
	}
	r := float64(capacityItems) / float64(n)
	if r > 1 {
		return 1
	}
	return r
}

// WorkingSetHitRate estimates the hit rate of a working set of the given
// bytes, touched uniformly at random, over a cache of capacityBytes. It
// converts byte quantities to line-granularity items; an empty working set
// always hits.
func WorkingSetHitRate(workingSetBytes, capacityBytes int64) float64 {
	if workingSetBytes <= 0 {
		return 1
	}
	n := int(workingSetBytes / LineBytes)
	if n == 0 {
		n = 1
	}
	return UniformLRUHitRate(n, int(capacityBytes/LineBytes))
}
