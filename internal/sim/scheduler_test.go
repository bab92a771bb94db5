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
			q.push(at, uint64(i), payload{})
		}
		prevAt := Time(-1)
		prevSeq := uint64(0)
		for q.Len() > 0 {
			it := q.pop()
			q.release(it.slot)
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

// refScheduled and refQueue are the event heap before its keys lost their
// pointers, kept verbatim as the reference: each entry carries its actor
// and event.
type refScheduled struct {
	at    Time
	seq   uint64
	actor Actor
	ev    Event
}

type refQueue []refScheduled

func (q refQueue) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q *refQueue) push(it refScheduled) {
	*q = append(*q, it)
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *refQueue) pop() refScheduled {
	h := *q
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = refScheduled{}
	*q = h[:last]
	h = *q
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h) && h.less(l, smallest) {
			smallest = l
		}
		if r < len(h) && h.less(r, smallest) {
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

// The front lane's five cases, by where a push lands (DESIGN.md §33).
const (
	pushEmpty      = iota // into an empty queue: takes the lane
	pushBeforeHeap        // lane free, strictly before the heap minimum: takes the lane
	pushDisplace          // strictly before the front: takes the lane, the front moves into the heap
	pushTieFront          // at the front's time: goes into the heap
	pushTieHeap           // at the heap minimum's time: goes into the heap
	laneCases
)

// laneCase classifies a push at time at into q, or returns -1 for a push
// that goes into the heap behind a strictly earlier key.
func laneCase(q *eventQueue, at Time) int {
	switch {
	case q.Len() == 0:
		return pushEmpty
	case q.hasFront && at < q.front.at:
		return pushDisplace
	case q.hasFront && at == q.front.at:
		return pushTieFront
	case len(q.heap) > 0 && at == q.heap[0].at:
		return pushTieHeap
	case !q.hasFront && at < q.heap[0].at:
		return pushBeforeHeap
	}
	return -1
}

// checkFront requires the front, when there is one, to order strictly
// before every heap key.
func checkFront(t *testing.T, seed uint64, q *eventQueue) {
	t.Helper()
	if !q.hasFront || len(q.heap) == 0 {
		return
	}
	f, h := q.front, q.heap[0]
	if f.at > h.at || f.at == h.at && f.seq >= h.seq {
		t.Fatalf("seed %d: front (%v, %d) does not order before the heap minimum (%v, %d)", seed, f.at, f.seq, h.at, h.seq)
	}
}

// compareQueues drives the queue and the reference through the same random
// pushes and pops, with coarse times for ties, and requires every pop to
// return the same time, sequence, actor and event. ops encodes the script:
// each byte pushes when it is even, pops otherwise. Every push must land
// where its lane case says; compareQueues returns how often each case
// occurred.
func compareQueues(t *testing.T, seed uint64, ops []byte) (cases [laneCases]int) {
	t.Helper()
	rng := NewRng(seed)
	actors := []Actor{&nopActor{name: "a"}, &nopActor{name: "b"}, &nopActor{name: "c"}}
	var q eventQueue
	var ref refQueue
	var seq uint64
	now := Time(0)
	popOne := func() {
		want := ref.pop()
		k := q.pop()
		got := q.slots[k.slot]
		q.release(k.slot)
		if k.at != want.at || k.seq != want.seq || got.actor != want.actor || got.ev != want.ev {
			t.Fatalf("seed %d: popped (%v, %d, %v, %v), want (%v, %d, %v, %v)",
				seed, k.at, k.seq, got.actor, got.ev, want.at, want.seq, want.actor, want.ev)
		}
		checkFront(t, seed, &q)
		now = k.at
	}
	for _, op := range ops {
		if op%2 == 1 && len(ref) > 0 {
			popOne()
			continue
		}
		at := now + Time(op>>5)*Microsecond
		actor := actors[rng.Intn(len(actors))]
		ev := EventFunc(fmt.Sprintf("e%d", rng.Intn(4)))
		c, front, hasFront, heapLen := laneCase(&q, at), q.front, q.hasFront, len(q.heap)
		q.push(at, seq, payload{actor: actor, ev: ev})
		ref.push(refScheduled{at: at, seq: seq, actor: actor, ev: ev})
		switch c {
		case pushEmpty, pushBeforeHeap, pushDisplace:
			if !q.hasFront || q.front.seq != seq {
				t.Fatalf("seed %d: push %d (case %d) did not take the front lane", seed, seq, c)
			}
			if c == pushDisplace && q.heap[0].seq != front.seq {
				t.Fatalf("seed %d: push %d displaced front %d, which is not the heap minimum", seed, seq, front.seq)
			}
		default:
			if q.hasFront != hasFront || q.front != front || len(q.heap) != heapLen+1 {
				t.Fatalf("seed %d: push %d (case %d) moved the front lane", seed, seq, c)
			}
		}
		if c >= 0 {
			cases[c]++
		}
		checkFront(t, seed, &q)
		seq++
		if q.Len() != len(ref) {
			t.Fatalf("seed %d: queue holds %d, reference %d", seed, q.Len(), len(ref))
		}
	}
	for len(ref) > 0 {
		popOne()
	}
	if q.Len() != 0 || len(q.free) != len(q.slots) {
		t.Fatalf("seed %d: drained queue holds %d keys, %d of %d slots free", seed, q.Len(), len(q.free), len(q.slots))
	}
	return cases
}

// TestQueueMatchesReference compares the queue with the reference heap on
// random interleavings of pushes and pops, with many equal times, and
// requires each of the front lane's five cases to occur.
func TestQueueMatchesReference(t *testing.T) {
	var cases [laneCases]int
	for seed := uint64(0); seed < 300; seed++ {
		rng := NewRng(seed)
		ops := make([]byte, 1+rng.Intn(600))
		for i := range ops {
			ops[i] = byte(rng.Uint64())
			if seed%3 == 0 {
				ops[i] &^= 1 // push-only prefix runs, then drain
			}
		}
		for c, n := range compareQueues(t, seed, ops) {
			cases[c] += n
		}
	}
	t.Logf("pushes by lane case: %v", cases)
	for c, n := range cases {
		if n == 0 {
			t.Errorf("lane case %d never occurred: %v", c, cases)
		}
	}
}

// FuzzQueueMatchesReference runs fuzzer-chosen push/pop scripts against the
// reference heap.
func FuzzQueueMatchesReference(f *testing.F) {
	f.Add(uint64(1), []byte{0, 0, 0, 1, 1, 1})
	f.Add(uint64(2), []byte{0x20, 0, 0x40, 1, 0, 0x60, 1, 1, 1})
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		compareQueues(t, seed, ops)
	})
}

// TestTapFuncAndTraceRingAgree: a TapFunc and a TraceRing on one scheduler
// see identical sequences, whichever is registered first.
func TestTapFuncAndTraceRingAgree(t *testing.T) {
	for _, ringFirst := range []bool{false, true} {
		s := NewScheduler(9)
		ring := NewTraceRing(1 << 16)
		var seen []TraceEvent
		fn := TapFunc(func(te TraceEvent) { seen = append(seen, te) })
		if ringFirst {
			s.Tap(ring)
			s.Tap(fn)
		} else {
			s.Tap(fn)
			s.Tap(ring)
		}
		s.Schedule(0, &chainActor{name: "chain", budget: 200}, EventFunc("start"))
		drain(s)
		if len(seen) == 0 || !reflect.DeepEqual(ring.Snapshot(), seen) {
			t.Fatalf("ringFirst=%v: ring holds %d events, the TapFunc saw %d, or they differ",
				ringFirst, ring.Len(), len(seen))
		}
	}
}

// TestTapAttachedMidRun: a tap attached by a handler sees that event's
// completion and everything after, with the labels of the actors and events
// scheduled before it existed.
func TestTapAttachedMidRun(t *testing.T) {
	s := NewScheduler(1)
	rec := &recorder{}
	a := &nopActor{name: "a"}
	s.Schedule(2*Microsecond, a, EventFunc("later"))
	s.Schedule(Microsecond, &attachActor{tap: rec}, EventFunc("attach"))
	drain(s)
	want := []TraceEvent{
		{Phase: PhaseComplete, Seq: 1, At: Microsecond, Now: Microsecond, Actor: "attach", Kind: "attach"},
		{Phase: PhaseDispatch, Seq: 0, At: 2 * Microsecond, Now: 2 * Microsecond, Actor: "a", Kind: "later"},
		{Phase: PhaseComplete, Seq: 0, At: 2 * Microsecond, Now: 2 * Microsecond, Actor: "a", Kind: "later"},
	}
	if !reflect.DeepEqual(rec.events, want) {
		t.Fatalf("trace %+v, want %+v", rec.events, want)
	}
}

// attachActor registers its tap when it handles an event.
type attachActor struct{ tap Tap }

func (a *attachActor) Name() string                 { return "attach" }
func (a *attachActor) Handle(s *Scheduler, _ Event) { s.Tap(a.tap) }

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
	drain(s)
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
	drain(s)
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
	drain(s)
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
	if s.queue.Len() != 1 {
		t.Fatalf("pending %d events, want 1", s.queue.Len())
	}
	if s.Now() != 2*Millisecond {
		t.Fatalf("clock at %v, want 2ms", s.Now())
	}
}

// TestSchedulerStats: counters agree with the trace.
func TestSchedulerStats(t *testing.T) {
	trace, _ := runChained(11)
	var counts SchedulerStats
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
	drain(s)
	stats := s.Stats()
	totals := ring.Totals()
	if totals.Enqueued != stats.Enqueued || totals.Dispatched != stats.Dispatched || totals.Completed != stats.Completed {
		t.Fatalf("ring totals %+v disagree with scheduler stats %+v", totals, stats)
	}
	if ring.Len() == 0 {
		t.Fatal("ring captured no events")
	}
}

// tickActor reschedules itself every microsecond, forever.
type tickActor struct{}

func (tickActor) Name() string { return "tick" }
func (a tickActor) Handle(s *Scheduler, _ Event) {
	s.After(Microsecond, a, EventFunc("tick"))
}

// farFuture is later than any benchmark's ticks reach.
const farFuture = Time(1) << 60

// BenchmarkSchedulerStep times one dispatch of a self-rescheduling actor
// with four events pending. Four interleaved tickers, untraced, into a
// TraceRing and into a counting TapFunc, reschedule behind one another,
// through the heap. In lane, one ticker reschedules itself ahead of three
// far-future events, as tpp-timeline's arrivals do, through the front lane.
func BenchmarkSchedulerStep(b *testing.B) {
	var seen int
	for _, c := range []struct {
		name    string
		tap     Tap
		tickers int
	}{
		{"untraced", nil, 4},
		{"ring", NewTraceRing(4096), 4},
		{"tapfunc", TapFunc(func(TraceEvent) { seen++ }), 4},
		{"lane", nil, 1},
	} {
		b.Run(c.name, func(b *testing.B) {
			s := NewScheduler(1)
			s.Tap(c.tap)
			for i := 0; i < 4; i++ {
				if i < c.tickers {
					s.Schedule(Time(i), tickActor{}, EventFunc("tick"))
				} else {
					s.Schedule(farFuture, &nopActor{name: "far"}, EventFunc("far"))
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
}

// drain dispatches events until the queue is empty.
func drain(s *Scheduler) {
	for s.Step() {
	}
}

// labelActor schedules one follow-up to a random peer with a random kind,
// and checks in Handle that the dispatch record just traced names it and
// the event it received. It counts its Name reads.
type labelActor struct {
	t      *testing.T
	name   string
	peers  []*labelActor
	rec    *recorder
	budget *int
	names  int
}

// countedEvent is an event that counts its Kind reads.
type countedEvent struct {
	kind  string
	reads *int
}

func (e countedEvent) Kind() string { *e.reads++; return e.kind }

func (a *labelActor) Name() string { a.names++; return a.name }

func (a *labelActor) Handle(s *Scheduler, ev Event) {
	last := a.rec.events[len(a.rec.events)-1]
	if e := ev.(countedEvent); last.Phase != PhaseDispatch || last.Actor != a.name || last.Kind != e.kind {
		a.t.Fatalf("dispatch of %s/%s traced as %+v", a.name, e.kind, last)
	}
	if *a.budget > 0 {
		*a.budget--
		peer := a.peers[s.Rng().Intn(len(a.peers))]
		kind := fmt.Sprintf("k%d", s.Rng().Intn(4))
		s.After(Time(s.Rng().Intn(3))*Nanosecond, peer, countedEvent{kind: kind, reads: ev.(countedEvent).reads})
	}
}

// TestTraceLabelsFollowSlotReuse drives four actors through thousands of
// occurrences that recycle a few queue slots, with a tap attached from the
// start: every record names its own occurrence's actor and kind, never a
// previous occupant's of the slot, and Name and Kind are each read once
// per occurrence.
func TestTraceLabelsFollowSlotReuse(t *testing.T) {
	s := NewScheduler(7)
	rec := &recorder{}
	s.Tap(rec)
	budget, kinds := 5000, 0
	actors := make([]*labelActor, 4)
	for i := range actors {
		actors[i] = &labelActor{t: t, name: fmt.Sprintf("actor%d", i), rec: rec, budget: &budget}
	}
	for _, a := range actors {
		a.peers = actors
		s.Schedule(0, a, countedEvent{kind: "start", reads: &kinds})
	}
	drain(s)
	names := 0
	for _, a := range actors {
		names += a.names
	}
	n := int(s.Stats().Enqueued)
	if names != n || kinds != n {
		t.Fatalf("%d occurrences read Name %d times and Kind %d times, want once each", n, names, kinds)
	}
	first := map[uint64]TraceEvent{}
	for _, te := range rec.events {
		if f, ok := first[te.Seq]; !ok {
			first[te.Seq] = te
		} else if f.Actor != te.Actor || f.Kind != te.Kind {
			t.Fatalf("seq %d traced as %s/%s, then %s/%s", te.Seq, f.Actor, f.Kind, te.Actor, te.Kind)
		}
	}
	if len(s.queue.slots) > 8 {
		t.Fatalf("the run used %d slots; the test wants few, recycled ones", len(s.queue.slots))
	}
}
