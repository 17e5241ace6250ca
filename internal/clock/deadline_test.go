package clock

import (
	"runtime"
	"testing"
	"time"
)

// deadlineClock is one row of the table every Deadline test runs over:
// the wall clock, a Virtual stepped by the test, and an unpaced Scaled.
// run starts whatever makes scenario time pass (nothing, for System)
// and returns its stop.
type deadlineClock struct {
	name string
	clk  Clock
	run  func() (stop func())
	// pending reports an armed timer; nil where the clock cannot say.
	pending func() bool
}

func deadlineClocks() []deadlineClock {
	v := NewVirtual()
	s := NewScaled(SpeedMax, nil)
	return []deadlineClock{
		{name: "system", clk: System, run: func() func() { return func() {} }},
		{name: "virtual", clk: v, pending: func() bool { _, ok := v.NextAt(); return ok },
			run: func() func() {
				quit, done := make(chan struct{}), make(chan struct{})
				go func() {
					defer close(done)
					for {
						select {
						case <-quit:
							return
						default:
						}
						if next, ok := v.NextAt(); ok {
							v.Step(next)
						} else {
							runtime.Gosched()
						}
					}
				}()
				return func() { close(quit); <-done }
			}},
		{name: "scaled-max", clk: s, pending: func() bool { _, ok := s.NextAt(); return ok },
			run: func() func() {
				done := make(chan struct{})
				go func() { defer close(done); s.Drive() }()
				return func() { s.Stop(); <-done }
			}},
	}
}

func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

func TestDeadlineDoneSpendsBothBudgets(t *testing.T) {
	const timeout, grace = 30 * time.Millisecond, 40 * time.Millisecond
	for _, c := range deadlineClocks() {
		t.Run(c.name, func(t *testing.T) {
			d := NewDeadline(c.clk, timeout, grace)
			defer d.Stop()
			done := d.Done()
			if c.pending != nil && closed(done) {
				t.Fatal("Done closed with the scenario clock not yet moved")
			}
			start := System.Now()
			defer c.run()()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("Done never closed")
			}
			wall := System.Since(start)
			if c.clk == System {
				// The timeout was wall time: it is the whole budget.
				if wall < timeout || d.wallTimer() != nil {
					t.Fatalf("closed after %v (timeout %v), wall timer armed: %v", wall, timeout, d.wallTimer() != nil)
				}
				return
			}
			if got := c.clk.Now().Sub(Epoch); got < timeout {
				t.Fatalf("closed at scenario +%v, before the %v timeout", got, timeout)
			}
			if wall < grace {
				t.Fatalf("closed %v of wall time after the scenario timeout could first fire, grace is %v", wall, grace)
			}
		})
	}
}

func TestDeadlineStopLeavesNoTimer(t *testing.T) {
	const timeout, grace = 20 * time.Millisecond, 20 * time.Millisecond
	// Stopped while the scenario budget runs, and in the grace.
	for _, phase := range []string{"scenario", "grace"} {
		for _, c := range deadlineClocks() {
			if phase == "grace" && c.clk == System {
				continue // no grace on the wall clock
			}
			t.Run(c.name+"/"+phase, func(t *testing.T) {
				d := NewDeadline(c.clk, timeout, grace)
				done := d.Done()
				if phase == "grace" {
					stop := c.run()
					for d.wallTimer() == nil {
						runtime.Gosched()
					}
					stop()
				}
				d.Stop()
				if c.pending != nil && c.pending() {
					t.Error("scenario timer still armed after Stop")
				}
				// A wall timer Stop missed would close Done within the
				// grace (on System: the timeout).
				until := System.Now().Add(3 * timeout)
				for System.Now().Before(until) {
					if closed(done) {
						t.Fatal("Done closed after Stop")
					}
					System.Sleep(time.Millisecond)
				}
			})
		}
	}
}

func (d *Deadline) wallTimer() Timer {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.wall
}

func TestDeadlinePollSwitchesDomainAtTheDeadline(t *testing.T) {
	// Not a multiple of the scenario step: the last scenario sleep must
	// be cut to end on the deadline, not past it.
	const timeout, grace = 12 * time.Millisecond, 30 * time.Millisecond
	for _, c := range deadlineClocks() {
		t.Run(c.name, func(t *testing.T) {
			d := NewDeadline(c.clk, timeout, grace)
			defer c.run()()
			var graceStart time.Time
			scenarioSteps := 0
			for d.Poll() {
				switch {
				case d.wallEnd.IsZero():
					scenarioSteps++
					if c.clk != System && c.clk.Now().After(d.at) {
						t.Fatalf("scenario step %d slept past the deadline", scenarioSteps)
					}
				case graceStart.IsZero():
					graceStart = d.wallEnd.Add(-d.grace)
				}
			}
			if c.clk == System {
				if !graceStart.IsZero() || d.grace != 0 {
					t.Fatal("Poll spent a wall grace on the wall clock")
				}
				return
			}
			if scenarioSteps != 3 {
				t.Errorf("scenario steps = %d, want 3 (5+5+2 ms)", scenarioSteps)
			}
			if got := c.clk.Now(); !got.Equal(d.at) {
				t.Errorf("scenario clock at %v after Poll gave up, want the deadline %v", got.Sub(Epoch), d.at.Sub(Epoch))
			}
			if c.pending() {
				t.Error("Poll left a scenario timer armed")
			}
			if spent := System.Since(graceStart); spent < grace {
				t.Errorf("gave up %v into a %v grace", spent, grace)
			}
		})
	}
}
