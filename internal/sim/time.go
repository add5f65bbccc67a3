// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel is the substrate on which the whole DSM-PM2 reproduction runs:
// simulated cluster nodes, network links and user-level threads all advance a
// shared virtual clock instead of wall-clock time. Exactly one simulated
// thread (a Proc) runs at any instant: procs are coroutines that one event
// loop, on the goroutine that called Run, resumes in event order and that
// yield back to it, which makes every run with the same seed bit-for-bit
// reproducible.
//
// A Proc is new per Spawn, its coroutine is not: procs run on worker
// coroutines that a finished proc leaves idle for the next Spawn and that Run
// ends when it returns, and a step proc (SpawnStep) runs on none, in engine
// context. A million short threads cost the host a handful of goroutines.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, measured in virtual nanoseconds since the
// start of the simulation.
type Time int64

// Duration is a span of virtual time in virtual nanoseconds.
type Duration int64

// Convenient duration units. The paper reports everything in microseconds, so
// Microsecond is the unit used throughout the calibration tables.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// maxTime is the end of virtual time, and the "no pending event" sentinel.
const maxTime = Time(math.MaxInt64)

// Add returns the time d after t, saturating at the end of virtual time: a
// "forever" duration must land there, not wrap into the past.
func (t Time) Add(d Duration) Time {
	if s := t + Time(d); s >= t || d < 0 {
		return s
	}
	return maxTime
}

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Microseconds reports t as a floating-point number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Microseconds reports d as a floating-point number of microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// Micros builds a Duration from a number of microseconds.
func Micros(us float64) Duration { return Duration(us * float64(Microsecond)) }

// String formats the time as microseconds, the paper's unit.
func (t Time) String() string { return fmt.Sprintf("%.3fus", t.Microseconds()) }

// String formats the duration as microseconds, the paper's unit.
func (d Duration) String() string { return fmt.Sprintf("%.3fus", d.Microseconds()) }
