package workloads

// The spec limits, for the external fuzz tests.
const (
	MaxSizeBytes = maxSizeBytes
	MaxOps       = maxOps
	MaxQPS       = maxQPS
)
