package sim

// Phase classifies a trace event within an event's lifecycle.
type Phase uint8

// Event lifecycle phases, in the order a single event passes through them.
const (
	// PhaseEnqueue fires when Schedule/After accepts an event.
	PhaseEnqueue Phase = iota
	// PhaseDispatch fires when Step pops the event and advances the clock,
	// immediately before the actor's handler runs.
	PhaseDispatch
	// PhaseComplete fires after the actor's handler returns.
	PhaseComplete
)

// String returns the lowercase phase label used in traces and metrics.
func (p Phase) String() string {
	switch p {
	case PhaseEnqueue:
		return "enqueue"
	case PhaseDispatch:
		return "dispatch"
	case PhaseComplete:
		return "complete"
	default:
		return "unknown"
	}
}

// TraceEvent is one observation from a Scheduler tap.
type TraceEvent struct {
	// Phase is where in its lifecycle the event was observed.
	Phase Phase
	// Seq is the event's FIFO sequence number (unique per scheduled
	// occurrence, shared across its enqueue/dispatch/complete records).
	Seq uint64
	// At is the simulated time the event was scheduled for.
	At Time
	// Now is the simulated time of the observation itself: enqueue time for
	// PhaseEnqueue, dispatch time (== At) for the other phases.
	Now Time
	// Actor is the receiving actor's Name.
	Actor string
	// Kind is the event's Kind label.
	Kind string
}

// Tap observes scheduler trace events. Observe is called synchronously on
// the simulation goroutine, one event at a time; a tap whose state other
// goroutines read must do its own locking.
type Tap interface {
	// Observe receives one trace event.
	Observe(TraceEvent)
}

// TapFunc adapts a function to the Tap interface.
type TapFunc func(TraceEvent)

// Observe implements Tap.
func (f TapFunc) Observe(te TraceEvent) { f(te) }

// TraceRing is a bounded ring buffer of trace events plus cumulative
// per-phase totals. It retains the most recent Cap events; older ones are
// overwritten. Its storage grows on demand up to Cap, so a short run pays
// only for the events it produced. A TraceRing is not safe for concurrent
// use: a run records into its own ring, and its owner reads it once the run
// has returned.
type TraceRing struct {
	buf    []TraceEvent
	max    int
	next   int // once the ring is full, the oldest event's index
	counts SchedulerStats
}

// NewTraceRing returns a ring retaining the most recent capacity events.
// Capacity is clamped to at least 1.
func NewTraceRing(capacity int) *TraceRing {
	return &TraceRing{max: max(capacity, 1)}
}

// Observe implements Tap: the event is appended, overwriting the oldest
// retained event once the ring is full.
func (r *TraceRing) Observe(te TraceEvent) {
	*r.slot() = te
	switch te.Phase {
	case PhaseEnqueue:
		r.counts.Enqueued++
	case PhaseDispatch:
		r.counts.Dispatched++
	case PhaseComplete:
		r.counts.Completed++
	}
}

// slot returns where the next retained event goes: a new element while the
// ring is below capacity, else the oldest one, which it overwrites.
func (r *TraceRing) slot() *TraceEvent {
	if len(r.buf) < r.max {
		if len(r.buf) == cap(r.buf) {
			grown := make([]TraceEvent, len(r.buf), min(max(2*len(r.buf), 64), r.max))
			copy(grown, r.buf)
			r.buf = grown
		}
		r.buf = r.buf[:len(r.buf)+1]
		return &r.buf[len(r.buf)-1]
	}
	e := &r.buf[r.next]
	if r.next++; r.next == r.max {
		r.next = 0
	}
	return e
}

// Cap returns the ring's capacity.
func (r *TraceRing) Cap() int { return r.max }

// Len returns the number of events currently retained.
func (r *TraceRing) Len() int { return len(r.buf) }

// Totals returns cumulative per-phase counts (not bounded by capacity), in
// the scheduler's own counter type.
func (r *TraceRing) Totals() SchedulerStats { return r.counts }

// Snapshot returns the retained events oldest-first as a fresh slice.
func (r *TraceRing) Snapshot() []TraceEvent {
	out := make([]TraceEvent, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}
