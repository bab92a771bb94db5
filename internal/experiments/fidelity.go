package experiments

import (
	"fmt"
	"strings"

	"cxlmem/internal/mlc"
	"cxlmem/internal/topo"
)

// Fidelity selects how the cache-simulating measurements (the fig5 and
// ablation-llc buffer-latency sweeps) are computed. It is orthogonal to
// Quick (sample counts): fidelity decides whether a point is simulated at
// all.
type Fidelity string

const (
	// FidelityExact simulates every operating point through the streamed
	// cache replay — the default, and the mode the golden corpus pins.
	FidelityExact Fidelity = "exact"
	// FidelityAuto simulates operating points near a capacity knee
	// (mlc.BufferKneeDistance < mlc.KneeMargin) and uses the CHE analytic
	// estimate everywhere else, where the property-tested divergence bound
	// applies (mlc.BufferLatencyEstimate).
	FidelityAuto Fidelity = "auto"
	// FidelityFast uses the analytic estimate for every point.
	FidelityFast Fidelity = "fast"
)

// ParseFidelity parses a user-supplied fidelity name, case-insensitively;
// empty means exact.
func ParseFidelity(s string) (Fidelity, error) {
	switch f := Fidelity(strings.ToLower(s)); f {
	case "", FidelityExact:
		return FidelityExact, nil
	case FidelityAuto, FidelityFast:
		return f, nil
	default:
		return "", fmt.Errorf("unknown fidelity %q (want exact, auto or fast)", s)
	}
}

// fidelity resolves the options' fidelity tier, normalizing empty to exact
// so the memo fingerprint cannot fork identical runs.
func (o Options) fidelity() Fidelity {
	if o.Fidelity == "" {
		return FidelityExact
	}
	return o.Fidelity
}

// provFidelity is the provenance form: empty for exact, so the wire bytes
// of every pre-fidelity dataset — and the pinned JSON goldens — are
// unchanged, and only estimated datasets carry the label.
func (o Options) provFidelity() string {
	if f := o.fidelity(); f != FidelityExact {
		return string(f)
	}
	return ""
}

// bufferLatencyNs measures (or estimates, per the fidelity tier) the average
// buffer latency of one operating point — the shared hot path of fig5 and
// ablation-llc. Exact simulation keeps the historical seed offset and RNG
// stream, so exact fidelity is byte-identical to the golden corpus; auto
// falls back to exact simulation whenever the point sits within
// mlc.KneeMargin of a capacity knee.
func (o Options) bufferLatencyNs(sys *topo.System, path *topo.Path, bufBytes int64, samples int) float64 {
	switch o.fidelity() {
	case FidelityFast:
		return mlc.BufferLatencyEstimate(sys, path, bufBytes).Nanoseconds()
	case FidelityAuto:
		if mlc.BufferKneeDistance(sys, path, bufBytes) >= mlc.KneeMargin {
			return mlc.BufferLatencyEstimate(sys, path, bufBytes).Nanoseconds()
		}
	}
	return mlc.BufferLatencyOpt(sys, path, bufBytes, samples, o.Seed+3,
		mlc.StreamOptions{Workers: o.Parallel, Ctx: o.Ctx}).Nanoseconds()
}
