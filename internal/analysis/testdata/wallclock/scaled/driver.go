// Fixture: loaded as a runtime package (repro/internal/core) — the
// scaled-clock driver idiom. Time-compressed execution splits time
// into two domains: the injected clock owns the *schedule* (timer
// firing order, scenario timeouts), while clock.System legitimately
// bounds *wall-domain* work (TCP round-trips, goroutine handoffs)
// that does not compress with the scenario. The analyzer must keep
// flagging direct time-package access while leaving both the injected
// clock and explicit clock.System references alone — clock.System is
// an auditable, named decision; a bare time.Now is a silent leak.
package core

import (
	"time"

	"repro/internal/clock"
)

type driver struct {
	clk clock.Clock
}

// waitScheduled is the clean shape: the scenario deadline rides the
// injected clock, and once it expires the wall-domain work in flight
// gets a grace period on the explicit wall clock (clock.Deadline).
func (d *driver) waitScheduled(timeout time.Duration, done func() bool) bool {
	dl := clock.NewDeadline(d.clk, timeout, time.Second)
	for !done() {
		if !dl.Poll() {
			return false
		}
	}
	return true
}

// wallStamp is an explicit clock.System read: a named decision.
func wallStamp() time.Time { return clock.System.Now() }

// waitLeaky is the regression this fixture pins: mixing direct
// time-package reads into a scaled driver silently anchors the
// schedule to the wall and breaks digest equivalence across speeds.
func (d *driver) waitLeaky(timeout time.Duration, done func() bool) bool {
	deadline := time.Now().Add(timeout) // want `direct time\.Now`
	for !done() {
		if time.Now().After(deadline) { // want `direct time\.Now`
			return false
		}
		time.Sleep(5 * time.Millisecond) // want `direct time\.Sleep`
	}
	return true
}

// pacing anchors are pure duration arithmetic — never flagged.
func pacingGap(virtual time.Duration, speed float64) time.Duration {
	return time.Duration(float64(virtual) / speed)
}
