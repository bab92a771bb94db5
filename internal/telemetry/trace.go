package telemetry

import (
	"sync"

	"cxlmem/internal/sim"
)

// SimTrace is a process-wide sink for discrete-event scheduler traces: the
// most recent simulation activity, so cxlserve can expose it over /v1/trace
// and count event traffic in /metrics without plumbing a ring through every
// layer.
//
// A run never records into the sink directly. It records into its own
// sim.TraceRing, sized by Cap, and hands it to Publish when it completes;
// the sink's mutex is taken once per run, not once per event, and runs that
// overlap in time land as separate contiguous tails. Per-run determinism is
// untouched because no run reads the sink back.
type SimTrace struct {
	mu   sync.Mutex
	ring *sim.TraceRing
}

// NewSimTrace returns a sink retaining the most recent capacity events.
func NewSimTrace(capacity int) *SimTrace {
	return &SimTrace{ring: sim.NewTraceRing(capacity)}
}

// Sim is the process-wide trace sink. Event-driven experiment drivers
// publish each run's trace tail to it; cxlserve reads it.
var Sim = NewSimTrace(4096)

// Publish appends a completed run's retained events (its tail) and adds the
// run's totals. If the sink shrank since the run's ring was sized, the
// newest events are kept.
func (t *SimTrace) Publish(run *sim.TraceRing) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ring.Absorb(run)
}

// Snapshot returns the retained events oldest-first.
func (t *SimTrace) Snapshot() []sim.TraceEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Snapshot()
}

// Totals returns cumulative per-phase counts since the last Configure/Reset.
func (t *SimTrace) Totals() sim.TraceCounts {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Totals()
}

// Len returns the number of retained events.
func (t *SimTrace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Len()
}

// Cap returns the ring capacity.
func (t *SimTrace) Cap() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Cap()
}

// Configure replaces the ring with a fresh one of the given capacity,
// discarding retained events and totals (cxlserve's -trace-cap flag).
func (t *SimTrace) Configure(capacity int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ring = sim.NewTraceRing(capacity)
}

// Reset discards retained events and totals, keeping the capacity.
func (t *SimTrace) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ring.Reset()
}
