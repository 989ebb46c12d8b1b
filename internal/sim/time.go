// Package sim provides the discrete-event simulation kernel used by every
// timing model in the repository: a picosecond-resolution clock and a
// deterministic event queue.
//
// All components (CPU cores, the CXL link, flash channels, DRAM channels,
// the OS scheduler) share one Engine. Determinism is guaranteed by breaking
// ties between events scheduled for the same instant in insertion order, so
// a given configuration always produces a bit-identical simulation.
package sim

import "fmt"

// Time is a point in (or duration of) simulated time, in picoseconds.
//
// A picosecond base unit represents a 4 GHz CPU cycle exactly (250 ps) while
// still covering ~106 days of simulated time in an int64, far beyond any
// experiment in this repository.
type Time int64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Nanoseconds returns t as a floating-point number of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds returns t as a floating-point number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Seconds returns t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String renders the time with an adaptive unit, e.g. "3.0µs" or "250ps".
func (t Time) String() string {
	neg := ""
	v := t
	if v < 0 {
		neg = "-"
		v = -v
	}
	switch {
	case v >= Second:
		return fmt.Sprintf("%s%.3gs", neg, v.Seconds())
	case v >= Millisecond:
		return fmt.Sprintf("%s%.3gms", neg, float64(v)/float64(Millisecond))
	case v >= Microsecond:
		return fmt.Sprintf("%s%.3gµs", neg, v.Microseconds())
	case v >= Nanosecond:
		return fmt.Sprintf("%s%.3gns", neg, v.Nanoseconds())
	default:
		return fmt.Sprintf("%s%dps", neg, int64(v))
	}
}

// Max returns the later of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}
