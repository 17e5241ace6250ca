// Package clock is the injectable time source for Digibox's runtime
// packages. Everything that sleeps, ticks, backs off, or timestamps in
// broker, chaos, swarm, digi, kube, and core goes through a Clock, so
// the same code runs against the wall clock in live testbeds
// (clock.System) and against a discrete-event virtual clock in
// deterministic replay (clock.Virtual) — the refactor that unblocks
// time-compressed scenario execution ("dbox run -speed 100x").
//
// Pacing waits go through SleepUntil, which waits for an absolute
// instant beside a context. Its one fast path: on a *Scaled that Drive
// runs at SpeedMax, a wait with no timer armed at or before its
// instant, made while no Step callback runs, moves Now there in place
// and arms nothing, because the driver would fire that timer next
// anyway. On System, a bare Virtual, a Scaled under Run or at a finite
// factor, a wait arms one timer. Waits that can fail
// for lack of time use Deadline.
//
// This package is the one sanctioned boundary to the time package:
// `dbox analyze`'s wallclock analyzer flags direct time.Now/Sleep/
// After/Tick/NewTimer/NewTicker calls in runtime packages and points
// here. Inherently wall-clock sites (net.Conn deadlines, operator
// UIs) stay on the time package under a //dbox:allow wallclock
// directive with a reason.
package clock

import "time"

// Clock is the time source runtime packages depend on. Implementations
// are System (the wall clock) and *Virtual (a deterministic
// discrete-event clock).
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Since returns the time elapsed on this clock since t.
	Since(t time.Time) time.Duration
	// Sleep blocks for d of this clock's time.
	Sleep(d time.Duration)
	// After returns a channel that receives the clock's time once d
	// has elapsed.
	After(d time.Duration) <-chan time.Time
	// AfterFunc arms fn to run after d; the returned Timer's Stop
	// cancels it if it has not fired.
	AfterFunc(d time.Duration, fn func()) Timer
	// NewTicker returns a ticker firing every d. d must be positive.
	NewTicker(d time.Duration) Ticker
}

// Ticker is the clock-agnostic time.Ticker shape.
type Ticker interface {
	// C delivers ticks. Like time.Ticker, slow receivers drop ticks
	// rather than queue them.
	C() <-chan time.Time
	// Stop ends the ticker. It does not close C.
	Stop()
}

// Timer is the handle AfterFunc returns.
type Timer interface {
	// Stop cancels the pending fire, reporting whether it was still
	// pending.
	Stop() bool
}

// System is the wall clock: every method delegates to the time
// package. It is the default wherever a Clock option is left nil.
var System Clock = systemClock{}

// Or returns c, or System when c is nil — the idiom for defaulting a
// Clock option field.
func Or(c Clock) Clock {
	if c == nil {
		return System
	}
	return c
}

type systemClock struct{}

func (systemClock) Now() time.Time                  { return time.Now() }
func (systemClock) Since(t time.Time) time.Duration { return time.Since(t) }
func (systemClock) Sleep(d time.Duration)           { time.Sleep(d) }
func (systemClock) After(d time.Duration) <-chan time.Time {
	return time.After(d)
}

func (systemClock) AfterFunc(d time.Duration, fn func()) Timer {
	return systemTimer{time.AfterFunc(d, fn)}
}

func (systemClock) NewTicker(d time.Duration) Ticker {
	return systemTicker{time.NewTicker(d)}
}

type systemTicker struct{ t *time.Ticker }

func (s systemTicker) C() <-chan time.Time { return s.t.C }
func (s systemTicker) Stop()               { s.t.Stop() }

type systemTimer struct{ t *time.Timer }

func (s systemTimer) Stop() bool { return s.t.Stop() }
