package clock

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// SpeedMax is the unpaced execution factor: the driver fires timers
// back-to-back in discrete-event order with no wall-clock waits, like
// a bare Virtual driven in a tight Step loop.
var SpeedMax = math.Inf(1)

// ParseSpeed parses the wire/CLI form of a speed factor: "max" (or
// "inf") for unpaced discrete-event execution, otherwise a positive
// finite decimal such as "1", "100", or "2.5". JSON cannot encode
// infinity, so everything that crosses a process boundary carries
// speeds in this string form.
func ParseSpeed(s string) (float64, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "max", "inf":
		return SpeedMax, nil
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) || f <= 0 {
		return 0, fmt.Errorf("clock: invalid speed %q (want \"max\" or a positive number)", s)
	}
	return f, nil
}

// FormatSpeed renders a factor in the form ParseSpeed accepts.
func FormatSpeed(f float64) string {
	if math.IsInf(f, 1) {
		return "max"
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// Scaled is a Virtual clock paced against a wall clock at a factor
// fixed at construction: factor 1 is real time, factor 100 compresses
// 100s of scenario time into 1s of wall time, and SpeedMax degenerates
// to pure discrete-event firing.
//
// Crucially, Now still advances ONLY at timer firings (and explicit
// AdvanceTo), exactly like Virtual — pacing inserts wall-clock waits
// *between* steps but never changes which timer fires next or what
// time it observes. The (time, seq) heap order is therefore identical
// at every factor, which is what makes replay digests speed-invariant.
type Scaled struct {
	*Virtual
	wall Clock

	// factor and the wall↔virtual anchor are fixed at NewScaled.
	factor     float64
	anchorWall time.Time
	anchorVirt time.Time

	driving atomic.Bool // Drive is running: SleepUntil may grant in place

	wake     chan struct{}
	stop     chan struct{}
	stopOnce sync.Once
}

// NewScaled returns a paced virtual clock at Epoch. factor must be
// positive; SpeedMax (+Inf) selects unpaced execution. A nil wall
// defaults to System (tests inject a Virtual wall to make pacing
// itself deterministic).
func NewScaled(factor float64, wall Clock) *Scaled {
	if !(factor > 0) { // catches zero, negatives, and NaN
		panic("clock: non-positive speed factor")
	}
	s := &Scaled{
		Virtual: NewVirtual(),
		wall:    Or(wall),
		factor:  factor,
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
	}
	s.anchorWall = s.wall.Now()
	s.anchorVirt = s.Virtual.Now()
	s.Virtual.setNotify(s.kick)
	return s
}

// Factor returns the pacing factor.
func (s *Scaled) Factor() float64 { return s.factor }

// Stop aborts any in-progress Run or Drive. Idempotent.
func (s *Scaled) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
}

// Stopped reports whether Stop has been called.
func (s *Scaled) Stopped() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

// kick wakes a driver sleeping in paceTo. Non-blocking, safe to call
// under the Virtual lock (it is the push-notify hook).
func (s *Scaled) kick() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// Run drives the clock to deadline: each pending timer fires at its
// scheduled virtual time, paced against the wall clock, then virtual
// now advances to the deadline. cont (optional) is polled before every
// step; returning false aborts the run. This is the scenario-bounded
// driver the replay engine uses.
func (s *Scaled) Run(deadline time.Time, cont func() bool) {
	for {
		if cont != nil && !cont() {
			return
		}
		if s.Stopped() {
			return
		}
		target := deadline
		next, ok := s.NextAt()
		fire := ok && !next.After(deadline)
		if fire {
			target = next
		}
		if !s.paceTo(target) {
			// Woken early: a new (possibly earlier) timer was armed,
			// or we were stopped. Re-peek.
			continue
		}
		if !fire {
			s.AdvanceTo(deadline)
			return
		}
		s.Step(deadline)
	}
}

// Drive paces the clock open-endedly for live testbeds: pending timers
// fire on schedule at the configured factor, and while the heap is
// idle virtual time tracks scaled wall time in small quanta. Exits on
// Stop. At SpeedMax virtual time is purely event-driven — it freezes
// when no timers are armed instead of racing ahead.
func (s *Scaled) Drive() {
	const idleQuantum = 5 * time.Millisecond
	s.driving.Store(true)
	defer s.driving.Store(false)
	for {
		if s.Stopped() {
			return
		}
		if next, ok := s.NextAt(); ok {
			if s.paceTo(next) {
				s.Step(next)
				// At SpeedMax there is no wall gap between firings, so
				// goroutines waiting on what this step produced (watch
				// events, channel sends) would race later virtual
				// deadlines. Yield so ready receivers observe the
				// earlier event before the next timer can fire.
				runtime.Gosched()
			}
			continue
		}
		if math.IsInf(s.factor, 1) {
			select {
			case <-s.wake:
			case <-s.stop:
				return
			}
			continue
		}
		select {
		case <-s.wall.After(idleQuantum):
			s.AdvanceTo(s.anchorVirt.Add(time.Duration(float64(s.wall.Now().Sub(s.anchorWall)) * s.factor)))
		case <-s.wake:
		case <-s.stop:
			return
		}
	}
}

// grant is SleepUntil's fast path: while Drive runs unpaced, a wait
// for at that nothing armed precedes is the timer the driver would
// fire next, so the clock moves to at in place instead of arming it.
// It reports whether the wait is over.
//
// It takes only the Virtual lock, in grantIdle. A grant that reads
// driving just before Drive exits may move the clock after the exit;
// it is still ordered before it. Drive exits only once Stop is
// called, does nothing after its last step but clear driving, and
// nothing waits on its return. So the grant, atomic under the Virtual
// lock, is one that Drive could have allowed before it saw Stop.
func (s *Scaled) grant(at time.Time) bool {
	if !s.driving.Load() || !math.IsInf(s.factor, 1) || s.Stopped() {
		return false
	}
	return s.Virtual.grantIdle(at)
}

// paceTo blocks until the wall instant corresponding to virtual target
// arrives, reporting true. It returns false when woken early (new
// timer, Stop) — callers must re-peek the heap rather than assume the
// target is due. The mapping is anchored absolutely
// (anchorWall + (target−anchorVirt)/factor), so interrupted waits
// resume drift-free.
func (s *Scaled) paceTo(target time.Time) bool {
	if math.IsInf(s.factor, 1) {
		return true
	}
	wallTarget := s.anchorWall.Add(time.Duration(float64(target.Sub(s.anchorVirt)) / s.factor))
	wait := wallTarget.Sub(s.wall.Now())
	if wait <= 0 {
		return true
	}
	select {
	case <-s.wall.After(wait):
		return true
	case <-s.wake:
		return false
	case <-s.stop:
		return false
	}
}
