// Package sim provides the primitive building blocks shared by every part of
// the cxlmem simulator: a picosecond-resolution simulated clock, a fast
// deterministic random number generator, and the discrete-event scheduler
// with its trace taps.
//
// Everything in this package is deterministic: two runs with the same seed and
// parameters produce bit-identical results, which is what makes the
// paper-reproduction experiments stable enough to assert on in tests.
package sim

import (
	"context"
	"fmt"
)

// Time is a point or duration on the simulated clock, in picoseconds.
//
// Picoseconds (not nanoseconds) are used so that sub-nanosecond quantities —
// link slot occupancies, per-byte transfer times on a 32 GB/s PCIe link — stay
// exact integers and the simulation remains deterministic across platforms.
type Time int64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Nanoseconds returns t as a float64 count of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds returns t as a float64 count of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Milliseconds returns t as a float64 count of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Seconds returns t as a float64 count of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// FromNanoseconds converts a float64 nanosecond quantity to a Time, rounding
// to the nearest picosecond.
func FromNanoseconds(ns float64) Time {
	if ns < 0 {
		return Time(ns*float64(Nanosecond) - 0.5)
	}
	return Time(ns*float64(Nanosecond) + 0.5)
}

// String renders the time with an adaptive unit, e.g. "113.2ns" or "4.50ms".
func (t Time) String() string {
	switch {
	case t < 0:
		return "-" + (-t).String()
	case t < Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < Microsecond:
		return fmt.Sprintf("%.1fns", t.Nanoseconds())
	case t < Millisecond:
		return fmt.Sprintf("%.2fus", t.Microseconds())
	case t < Second:
		return fmt.Sprintf("%.2fms", t.Milliseconds())
	default:
		return fmt.Sprintf("%.3fs", t.Seconds())
	}
}

// Clock is a monotonically advancing simulated clock.
//
// The zero value is a clock at time zero, ready to use.
type Clock struct {
	now Time
}

// Now returns the current simulated time.
func (c *Clock) Now() Time { return c.now }

// AdvanceTo moves the clock to t if t is in the future; it is a no-op when t
// is in the past (useful when merging per-core local clocks).
func (c *Clock) AdvanceTo(t Time) Time {
	if t > c.now {
		c.now = t
	}
	return c.now
}

// Stopped reports ctx's error at every 4096th operation i and nil between.
// A steady-state model that runs its operations in one loop calls it once
// per operation, so a canceled run stops within a few thousand operations
// for one context check per 4096.
func Stopped(ctx context.Context, i int) error {
	if i&4095 != 0 {
		return nil
	}
	return ctx.Err()
}
