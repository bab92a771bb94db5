// The discrete-event core (DESIGN.md §13): Event/Actor interfaces and the
// time-ordered event queue behind the Scheduler, for dynamic scenarios —
// migration timelines, bursty arrivals, multi-tenant contention — where
// *when* things happen is the result, not a discretization artifact.
package sim

// Event is one unit of scheduled work. Implementations are plain data the
// receiving Actor interprets; the engine only asks for a Kind label so
// tracing taps can classify events without reflection.
type Event interface {
	// Kind names the event type for tracing ("arrival", "scan", ...). The
	// scheduler reads it once per scheduled occurrence, when the occurrence
	// is first traced (at Schedule while a tap is attached), and reuses the
	// label for the occurrence's dispatch and completion records.
	Kind() string
}

// Actor handles events addressed to it. Actors are single-threaded by
// construction: a Scheduler dispatches exactly one event at a time, so
// handlers may mutate shared simulation state without locks.
type Actor interface {
	// Name identifies the actor in traces. Like Event.Kind it is read once
	// per scheduled occurrence, so it must not change while the actor has
	// events queued.
	Name() string
	// Handle processes one event. It may schedule follow-up events on s;
	// scheduling into the past panics.
	Handle(s *Scheduler, ev Event)
}

// EventFunc is a convenience Event: a bare kind label with no payload.
// Self-rescheduling actors (tickers, scan loops) share one EventFunc value
// across every occurrence, keeping the steady-state schedule allocation-free.
type EventFunc string

// Kind implements Event.
func (e EventFunc) Kind() string { return string(e) }

// scheduled is one queued event occurrence's heap key: the dispatch time,
// the FIFO tie-break sequence number, and the queue slot holding its
// payload. It holds no pointers, so the heap's sift swaps are plain moves.
type scheduled struct {
	at   Time
	seq  uint64
	slot int32
}

// payload is what a queue slot holds for one occurrence: the (actor, event)
// pair and, once the occurrence has been traced, its trace labels.
type payload struct {
	actor   Actor
	ev      Event
	name    string
	kind    string
	labeled bool
}

// label reads the trace labels into p on first use.
func (p *payload) label() {
	if !p.labeled {
		p.name, p.kind, p.labeled = p.actor.Name(), p.ev.Kind(), true
	}
}

// eventQueue is a binary min-heap of scheduled keys ordered by (at, seq):
// earliest dispatch time first, and FIFO — enqueue order — among events
// scheduled for the same instant. The seq tie-break is what makes the
// dispatch order (and therefore every trace and dataset) deterministic.
// Payloads live in a slot table beside the heap and are recycled through a
// free list; a released slot keeps its references until it is reused, so
// the table retains at most as many stale payloads as the queue's peak
// length.
type eventQueue struct {
	heap  []scheduled
	slots []payload
	free  []int32
}

// Len returns the number of queued occurrences.
func (q *eventQueue) Len() int { return len(q.heap) }

// less orders the heap by time, then by enqueue sequence.
func (q *eventQueue) less(i, j int) bool {
	a, b := &q.heap[i], &q.heap[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push stores p in a free slot, adds its key and restores the heap
// invariant. It returns the slot.
func (q *eventQueue) push(at Time, seq uint64, p payload) int32 {
	var slot int32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
		q.slots[slot] = p
	} else {
		slot = int32(len(q.slots))
		q.slots = append(q.slots, p)
	}
	q.heap = append(q.heap, scheduled{at: at, seq: seq, slot: slot})
	h := q.heap
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	return slot
}

// pop removes and returns the earliest key. Its slot stays occupied until
// the caller hands it back with release. It panics on an empty queue;
// callers check Len first.
func (q *eventQueue) pop() scheduled {
	h := q.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	q.heap = h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h) && q.less(l, smallest) {
			smallest = l
		}
		if r < len(h) && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	return top
}

// release returns a popped key's slot to the free list.
func (q *eventQueue) release(slot int32) {
	q.free = append(q.free, slot)
}
