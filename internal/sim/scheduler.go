package sim

import "fmt"

// SchedulerStats counts event traffic through a Scheduler. All counters are
// cumulative since construction.
type SchedulerStats struct {
	// Enqueued is the number of Schedule/After calls accepted.
	Enqueued uint64
	// Dispatched is the number of events delivered to actors.
	Dispatched uint64
	// Completed is the number of actor handlers that returned.
	Completed uint64
}

// Scheduler is a deterministic discrete-event executor: a clock, a
// time-ordered event queue, a seeded random stream, and a set of tracing
// taps. Execution is strictly single-threaded — Step pops the earliest
// (time, FIFO) event, advances the clock to its timestamp, and hands it to
// its actor — so two schedulers built with the same seed and fed the same
// actor logic produce identical event orders, identical traces, and
// identical downstream datasets regardless of how many OS threads or sweep
// workers surround them. That property is what lets event-driven workloads
// honor the repo-wide serial-vs-parallel byte-identity contract.
//
// A Scheduler is not safe for concurrent use.
type Scheduler struct {
	clock Clock
	queue eventQueue
	seq   uint64
	rng   *Rng
	taps  []tap
	stats SchedulerStats
	// labels holds the trace labels of queued occurrences, by queue slot.
	// Only a traced scheduler fills it: an occurrence is labelled at its
	// first traced record (its Schedule, or its dispatch if it was queued
	// before the first tap) and unlabelled when its slot is released.
	labels []traceLabel
}

// traceLabel is one occurrence's actor Name and event Kind, read once.
type traceLabel struct {
	name, kind string
	set        bool
}

// tap is one registered tap. A *TraceRing is kept as a concrete pointer so
// emit calls it without an interface hop; any other Tap goes in other.
type tap struct {
	ring  *TraceRing
	other Tap
}

// NewScheduler returns a scheduler at time zero whose Rng is seeded with
// seed. Same seed ⇒ identical random stream ⇒ identical run.
func NewScheduler(seed uint64) *Scheduler {
	return &Scheduler{rng: NewRng(seed)}
}

// Now returns the current simulated time.
func (s *Scheduler) Now() Time { return s.clock.Now() }

// Rng returns the scheduler's seeded random stream. Actors draw from it
// during Handle; because dispatch order is deterministic, so is every draw.
func (s *Scheduler) Rng() *Rng { return s.rng }

// Stats returns cumulative event counters.
func (s *Scheduler) Stats() SchedulerStats { return s.stats }

// Tap registers a tracing tap. Taps observe every enqueue, dispatch and
// completion in execution order; registration order is preserved.
func (s *Scheduler) Tap(t Tap) {
	switch t := t.(type) {
	case nil:
	case *TraceRing:
		s.taps = append(s.taps, tap{ring: t})
	default:
		s.taps = append(s.taps, tap{other: t})
	}
}

// Schedule enqueues ev for actor at absolute time at. Scheduling into the
// past panics — simulated time never flows backwards. Scheduling at the
// current instant is allowed and dispatches after all earlier-enqueued
// events for that instant (FIFO tie-break). With a tap attached, the
// actor's Name and the event's Kind are read here, once for the
// occurrence's three trace records.
func (s *Scheduler) Schedule(at Time, actor Actor, ev Event) {
	if at < s.clock.Now() {
		panic(fmt.Sprintf("sim: event %q scheduled at %v, before now %v", ev.Kind(), at, s.clock.Now()))
	}
	if actor == nil {
		panic("sim: event scheduled with nil actor")
	}
	seq := s.seq
	s.seq++
	s.stats.Enqueued++
	slot := s.queue.push(at, seq, payload{actor: actor, ev: ev})
	if len(s.taps) > 0 {
		l := s.label(slot, actor, ev)
		s.emit(PhaseEnqueue, at, seq, l.name, l.kind)
	}
}

// label returns slot's trace labels, reading them from actor and ev on the
// occurrence's first traced record.
func (s *Scheduler) label(slot int32, actor Actor, ev Event) *traceLabel {
	if n := int(slot) + 1; n > len(s.labels) {
		s.labels = append(s.labels, make([]traceLabel, n-len(s.labels))...)
	}
	l := &s.labels[slot]
	if !l.set {
		*l = traceLabel{name: actor.Name(), kind: ev.Kind(), set: true}
	}
	return l
}

// After enqueues ev for actor d past the current time. Negative d panics.
func (s *Scheduler) After(d Time, actor Actor, ev Event) {
	if d < 0 {
		panic(fmt.Sprintf("sim: event %q scheduled %v in the past", ev.Kind(), -d))
	}
	s.Schedule(s.clock.Now()+d, actor, ev)
}

// Step dispatches the earliest pending event: the clock advances to its
// timestamp, the actor's Handle runs to completion, and taps observe the
// dispatch and completion. Step reports false when the queue is empty.
func (s *Scheduler) Step() bool {
	if s.queue.Len() == 0 {
		return false
	}
	k := s.queue.pop()
	p := s.queue.slots[k.slot]
	actor, ev := p.actor, p.ev
	s.clock.AdvanceTo(k.at)
	s.stats.Dispatched++
	var name, kind string
	traced := len(s.taps) > 0
	if traced {
		l := s.label(k.slot, actor, ev)
		name, kind = l.name, l.kind
		s.emit(PhaseDispatch, k.at, k.seq, name, kind)
	}
	// The slot stays reserved, and its labels valid, until the completion
	// is traced.
	actor.Handle(s, ev)
	s.stats.Completed++
	if len(s.taps) > 0 {
		if !traced {
			// Handle attached the first tap.
			name, kind = actor.Name(), ev.Kind()
		}
		s.emit(PhaseComplete, k.at, k.seq, name, kind)
	}
	s.release(k.slot)
	return true
}

// release frees a dispatched occurrence's slot, and its labels with it.
func (s *Scheduler) release(slot int32) {
	if int(slot) < len(s.labels) {
		s.labels[slot].set = false
	}
	s.queue.release(slot)
}

// RunUntil dispatches every event scheduled at or before deadline, then
// advances the clock to deadline. Events an actor schedules during the run
// are honored if they also fall within the deadline.
func (s *Scheduler) RunUntil(deadline Time) {
	for s.queue.Len() > 0 && s.queue.heap[0].at <= deadline {
		s.Step()
	}
	s.clock.AdvanceTo(deadline)
}

// emit fans one trace record out to every registered tap, in registration
// order.
func (s *Scheduler) emit(phase Phase, at Time, seq uint64, name, kind string) {
	now := s.clock.Now()
	for i := range s.taps {
		if r := s.taps[i].ring; r != nil {
			r.record(phase, seq, at, now, name, kind)
		} else {
			s.taps[i].other.Observe(TraceEvent{Phase: phase, Seq: seq, At: at, Now: now, Actor: name, Kind: kind})
		}
	}
}
