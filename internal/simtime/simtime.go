// Package simtime defines the time base used throughout the simulator.
//
// Simulated time is an integer count of nanoseconds since the start of the
// simulation. Integer time keeps every run exactly reproducible: there is
// no floating-point drift, and two events scheduled for the same instant
// compare equal on every platform.
package simtime

import (
	"fmt"
	"math"
)

// Time is an absolute instant in simulated time, in nanoseconds since the
// simulation epoch (t = 0).
type Time int64

// Duration is a span of simulated time in nanoseconds. It mirrors
// time.Duration but is a distinct type so host-clock values cannot be mixed
// into the simulation by accident.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
)

// Never is a sentinel Time later than any reachable instant. It is used as
// "no deadline" / "no event scheduled".
const Never Time = math.MaxInt64

// Infinite is a sentinel Duration longer than any reachable span.
const Infinite Duration = math.MaxInt64

// Micros returns a Duration of n microseconds.
func Micros(n int64) Duration { return Duration(n) * Microsecond }

// Millis returns a Duration of n milliseconds.
func Millis(n int64) Duration { return Duration(n) * Millisecond }

// Seconds returns a Duration of n seconds.
func Seconds(n int64) Duration { return Duration(n) * Second }

// Add returns t shifted by d, saturating at Never instead of overflowing.
func (t Time) Add(d Duration) Time {
	if t == Never || d == Infinite {
		return Never
	}
	s := int64(t) + int64(d)
	if d > 0 && s < int64(t) { // overflow
		return Never
	}
	return Time(s)
}

// Sub returns the duration from u to t (t - u).
func (t Time) Sub(u Time) Duration { return Duration(int64(t) - int64(u)) }

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

// Micros reports t as a (possibly fractional) number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis reports t as a (possibly fractional) number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Seconds reports t as a (possibly fractional) number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros reports d as a (possibly fractional) number of microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

// Millis reports d as a (possibly fractional) number of milliseconds.
func (d Duration) Millis() float64 { return float64(d) / float64(Millisecond) }

// Seconds reports d as a (possibly fractional) number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// String formats the instant using the most natural unit.
func (t Time) String() string {
	if t == Never {
		return "never"
	}
	return Duration(t).String()
}

// String formats the duration using the most natural unit.
func (d Duration) String() string {
	if d == Infinite {
		return "inf"
	}
	neg := ""
	if d < 0 {
		neg, d = "-", -d
	}
	switch {
	case d == 0:
		return "0s"
	case d < Microsecond:
		return fmt.Sprintf("%s%dns", neg, int64(d))
	case d < Millisecond:
		return fmt.Sprintf("%s%.3gµs", neg, d.Micros())
	case d < Second:
		return fmt.Sprintf("%s%.4gms", neg, d.Millis())
	default:
		return fmt.Sprintf("%s%.4gs", neg, d.Seconds())
	}
}

// Min returns the earlier of a and b.
func Min(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// Max returns the later of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// MinDur returns the shorter of a and b.
func MinDur(a, b Duration) Duration {
	if a < b {
		return a
	}
	return b
}

// ScaleDuration returns d scaled by num/den using integer arithmetic that
// rounds down. den must be > 0.
func ScaleDuration(d Duration, num, den int64) Duration {
	if den <= 0 {
		panic("simtime: ScaleDuration with non-positive denominator")
	}
	// Split into quotient and remainder to avoid overflow for the
	// magnitudes used in the simulator (durations well under 2^40 ns and
	// bandwidth numerators under 2^20).
	q, r := int64(d)/den, int64(d)%den
	return Duration(q*num + r*num/den)
}

// ScaleDurationCeil is ScaleDuration rounding up. Reservations and
// allocations round up so integer truncation can never starve a task of
// the last nanoseconds it needs at exact utilization.
func ScaleDurationCeil(d Duration, num, den int64) Duration {
	if den <= 0 {
		panic("simtime: ScaleDurationCeil with non-positive denominator")
	}
	q, r := int64(d)/den, int64(d)%den
	rest := r * num
	up := rest / den
	if rest%den != 0 {
		up++
	}
	return Duration(q*num + up)
}
