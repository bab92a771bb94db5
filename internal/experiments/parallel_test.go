package experiments

import "testing"

// TestSerialParallelEquivalence asserts the sweep engine's core contract:
// for every registered experiment, the rendered table is byte-identical
// whether the operating points run on one worker or many.
func TestSerialParallelEquivalence(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			serial := DefaultOptions()
			serial.Quick = true
			serial.Parallel = 1
			parallel := serial
			parallel.Parallel = 4

			want := e.Run(serial).Render()
			got := e.Run(parallel).Render()
			if got != want {
				t.Errorf("parallel output diverges from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
			}
		})
	}
}

// TestSweepPointsOrdering pins the index-addressed result contract directly.
func TestSweepPointsOrdering(t *testing.T) {
	o := Options{Parallel: 8}
	got := sweepPoints(o, 100, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("slot %d holds %d, want %d", i, v, i*i)
		}
	}
}

// TestSweepPanicPropagates keeps the serial failure mode: a panicking
// operating point fails the whole experiment, not just one worker.
func TestSweepPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected the point's panic to propagate")
		}
	}()
	forEachPoint(Options{Parallel: 4}, 16, func(i int) {
		if i == 7 {
			panic("boom")
		}
	})
}

// TestSweepPanicStopsClaims: a panicking point stops the sweep, so one
// worker evaluates no point after it, as a serial loop stops there too.
func TestSweepPanicStopsClaims(t *testing.T) {
	var evaluated int
	defer func() {
		if recover() == nil {
			t.Fatal("expected the point's panic to propagate")
		}
		if evaluated != 4 {
			t.Errorf("evaluated %d points, want 4: none after the panic at point 3", evaluated)
		}
	}()
	forEachPoint(Options{Parallel: 1}, 100, func(i int) {
		evaluated++
		if i == 3 {
			panic("boom")
		}
	})
}
