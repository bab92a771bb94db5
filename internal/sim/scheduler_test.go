package sim

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

// recorder collects every trace event in order.
type recorder struct {
	events []TraceEvent
}

func (r *recorder) Observe(te TraceEvent) { r.events = append(r.events, te) }

// nopActor ignores every event.
type nopActor struct{ name string }

func (a *nopActor) Name() string                 { return a.name }
func (a *nopActor) Handle(_ *Scheduler, _ Event) {}

// TestQueuePopsInTimeOrder is the heap-ordering property: however events are
// pushed, pops come out in non-decreasing time order, FIFO among ties.
func TestQueuePopsInTimeOrder(t *testing.T) {
	prop := func(seed uint64, n uint8) bool {
		rng := NewRng(seed)
		count := int(n%200) + 1
		var q eventQueue
		for i := 0; i < count; i++ {
			// Coarse times force plenty of exact ties.
			at := Time(rng.Intn(16)) * Millisecond
			q.push(scheduled{at: at, seq: uint64(i)})
		}
		prevAt := Time(-1)
		prevSeq := uint64(0)
		for len(q) > 0 {
			it := q.pop()
			if it.at < prevAt {
				return false
			}
			if it.at == prevAt && it.seq <= prevSeq {
				return false // FIFO violated among equal times
			}
			prevAt, prevSeq = it.at, it.seq
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// chainActor schedules follow-up events with random gaps until a budget of
// dispatches is exhausted, exercising enqueue-during-dispatch.
type chainActor struct {
	name    string
	budget  int
	handled []string
}

func (a *chainActor) Name() string { return a.name }

func (a *chainActor) Handle(s *Scheduler, ev Event) {
	a.handled = append(a.handled, fmt.Sprintf("%s@%d", ev.Kind(), s.Now()))
	if a.budget <= 0 {
		return
	}
	a.budget--
	fanout := 1 + s.Rng().Intn(2)
	for i := 0; i < fanout; i++ {
		gap := Time(s.Rng().Intn(5)) * Microsecond
		s.After(gap, a, EventFunc(fmt.Sprintf("chain-%d", i)))
	}
}

// runChained executes a randomized self-extending simulation and returns the
// full trace plus the actor's handling log.
func runChained(seed uint64) ([]TraceEvent, []string) {
	s := NewScheduler(seed)
	rec := &recorder{}
	s.Tap(rec)
	a := &chainActor{name: "chain", budget: 50}
	s.Schedule(0, a, EventFunc("start"))
	s.Run()
	return rec.events, a.handled
}

// TestSchedulerDeterminism: the same seed must yield an identical trace and
// handling order across 100 fresh runs (the PR's determinism contract), and
// a different seed must diverge.
func TestSchedulerDeterminism(t *testing.T) {
	baseTrace, baseLog := runChained(7)
	if len(baseTrace) == 0 {
		t.Fatal("trace is empty")
	}
	for i := 0; i < 100; i++ {
		tr, lg := runChained(7)
		if !reflect.DeepEqual(tr, baseTrace) {
			t.Fatalf("run %d: trace diverged from first run", i)
		}
		if !reflect.DeepEqual(lg, baseLog) {
			t.Fatalf("run %d: handling order diverged from first run", i)
		}
	}
	otherTrace, _ := runChained(8)
	if reflect.DeepEqual(otherTrace, baseTrace) {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestSchedulerFIFOTies: events scheduled for the same instant dispatch in
// enqueue order.
func TestSchedulerFIFOTies(t *testing.T) {
	s := NewScheduler(1)
	var order []string
	a := &nopActor{name: "a"}
	s.Tap(TapFunc(func(te TraceEvent) {
		if te.Phase == PhaseDispatch {
			order = append(order, te.Kind)
		}
	}))
	at := 3 * Microsecond
	for i := 0; i < 8; i++ {
		s.Schedule(at, a, EventFunc(fmt.Sprintf("e%d", i)))
	}
	s.Run()
	for i, kind := range order {
		if want := fmt.Sprintf("e%d", i); kind != want {
			t.Fatalf("dispatch %d: got %q, want %q", i, kind, want)
		}
	}
	if len(order) != 8 {
		t.Fatalf("dispatched %d events, want 8", len(order))
	}
}

// TestSchedulerPhases: each dispatched event produces enqueue → dispatch →
// complete with consistent Seq/At, and Now is monotone.
func TestSchedulerPhases(t *testing.T) {
	trace, _ := runChained(3)
	seen := map[uint64][]Phase{}
	var prevNow Time
	for _, te := range trace {
		if te.Now < prevNow {
			t.Fatalf("trace Now went backwards: %v after %v", te.Now, prevNow)
		}
		prevNow = te.Now
		seen[te.Seq] = append(seen[te.Seq], te.Phase)
		if te.Phase != PhaseEnqueue && te.Now != te.At {
			t.Fatalf("seq %d phase %v: Now %v != At %v", te.Seq, te.Phase, te.Now, te.At)
		}
	}
	for seq, phases := range seen {
		want := []Phase{PhaseEnqueue, PhaseDispatch, PhaseComplete}
		if !reflect.DeepEqual(phases, want) {
			t.Fatalf("seq %d: phases %v, want %v", seq, phases, want)
		}
	}
}

// TestSchedulePastPanics: scheduling before Now is a programming error.
func TestSchedulePastPanics(t *testing.T) {
	s := NewScheduler(1)
	a := &nopActor{name: "a"}
	s.Schedule(Microsecond, a, EventFunc("tick"))
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling into the past did not panic")
		}
	}()
	s.Schedule(0, a, EventFunc("late"))
}

// TestAfterNegativePanics: After with a negative delay panics.
func TestAfterNegativePanics(t *testing.T) {
	s := NewScheduler(1)
	defer func() {
		if recover() == nil {
			t.Fatal("After with negative delay did not panic")
		}
	}()
	s.After(-Nanosecond, &nopActor{name: "a"}, EventFunc("x"))
}

// TestRunUntil: events at or before the deadline dispatch, later ones stay
// queued, and the clock lands exactly on the deadline.
func TestRunUntil(t *testing.T) {
	s := NewScheduler(1)
	a := &nopActor{name: "a"}
	s.Schedule(1*Millisecond, a, EventFunc("in1"))
	s.Schedule(2*Millisecond, a, EventFunc("in2"))
	s.Schedule(3*Millisecond, a, EventFunc("out"))
	s.RunUntil(2 * Millisecond)
	if got := s.Stats().Dispatched; got != 2 {
		t.Fatalf("dispatched %d events, want 2", got)
	}
	if s.Pending() != 1 {
		t.Fatalf("pending %d events, want 1", s.Pending())
	}
	if s.Now() != 2*Millisecond {
		t.Fatalf("clock at %v, want 2ms", s.Now())
	}
}

// TestSchedulerStats: counters agree with the trace.
func TestSchedulerStats(t *testing.T) {
	trace, _ := runChained(11)
	var counts TraceCounts
	for _, te := range trace {
		switch te.Phase {
		case PhaseEnqueue:
			counts.Enqueued++
		case PhaseDispatch:
			counts.Dispatched++
		case PhaseComplete:
			counts.Completed++
		}
	}
	if counts.Enqueued != counts.Dispatched || counts.Dispatched != counts.Completed {
		t.Fatalf("unbalanced phases in a drained run: %+v", counts)
	}
}

// TestTraceRing: retention, wraparound, totals and snapshot order.
func TestTraceRing(t *testing.T) {
	r := NewTraceRing(4)
	for i := 0; i < 10; i++ {
		r.Observe(TraceEvent{Phase: PhaseDispatch, Seq: uint64(i)})
	}
	if r.Len() != 4 || r.Cap() != 4 {
		t.Fatalf("Len/Cap = %d/%d, want 4/4", r.Len(), r.Cap())
	}
	snap := r.Snapshot()
	for i, te := range snap {
		if want := uint64(6 + i); te.Seq != want {
			t.Fatalf("snapshot[%d].Seq = %d, want %d (oldest-first)", i, te.Seq, want)
		}
	}
	if got := r.Totals(); got.Dispatched != 10 {
		t.Fatalf("Totals().Dispatched = %d, want 10", got.Dispatched)
	}
	r.Reset()
	if r.Len() != 0 || r.Totals() != (TraceCounts{}) {
		t.Fatal("Reset did not clear the ring")
	}
}

// TestTraceRingGrowsLazily: a ring's storage starts empty, grows with the
// events it is fed, and never exceeds its capacity.
func TestTraceRingGrowsLazily(t *testing.T) {
	r := NewTraceRing(100)
	if cap(r.buf) != 0 {
		t.Fatalf("a fresh ring holds storage for %d events", cap(r.buf))
	}
	for i := 0; i < 3; i++ {
		r.Observe(TraceEvent{Seq: uint64(i)})
	}
	if c := cap(r.buf); c == 0 || c >= 100 {
		t.Fatalf("after 3 events the ring holds storage for %d", c)
	}
	for i := 3; i < 1000; i++ {
		r.Observe(TraceEvent{Seq: uint64(i)})
	}
	if c := cap(r.buf); c != 100 {
		t.Fatalf("a full ring holds storage for %d events, want its capacity 100", c)
	}
	if snap := r.Snapshot(); len(snap) != 100 || snap[0].Seq != 900 || snap[99].Seq != 999 {
		t.Fatalf("snapshot holds %d events from %d", len(snap), snap[0].Seq)
	}
}

// TestTraceRingAsTap: a ring attached as a tap captures the scheduler's
// stream with matching totals.
func TestTraceRingAsTap(t *testing.T) {
	s := NewScheduler(5)
	ring := NewTraceRing(1024)
	s.Tap(ring)
	a := &chainActor{name: "chain", budget: 10}
	s.Schedule(0, a, EventFunc("start"))
	s.Run()
	stats := s.Stats()
	totals := ring.Totals()
	if totals.Enqueued != stats.Enqueued || totals.Dispatched != stats.Dispatched || totals.Completed != stats.Completed {
		t.Fatalf("ring totals %+v disagree with scheduler stats %+v", totals, stats)
	}
	if ring.Len() == 0 {
		t.Fatal("ring captured no events")
	}
}
