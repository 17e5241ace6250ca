package clock

import (
	"sync"
	"time"
)

// Deadline is the testbed's one way to give up on a wait. Scenario
// time bounds the schedule; wall time bounds I/O and host latency: a
// Deadline spends timeout on the scenario clock and then grace on the
// wall clock, because on a compressed clock the scenario budget can run
// out in wall microseconds, long before the host's goroutine chain did
// the work being awaited. When the scenario clock is System the timeout
// was wall time already and there is no grace.
//
// Wait for events with a select on Done (and a deferred Stop), or for a
// condition with: for !cond() { if !d.Poll() { return errTimeout } }.
type Deadline struct {
	clk     Clock
	at      time.Time     // scenario deadline
	grace   time.Duration // wall budget after at
	wallEnd time.Time     // Poll: set when at is first seen passed

	mu         sync.Mutex // guards the rest, which only Done uses
	done       chan struct{}
	scen, wall Timer
	stopped    bool
}

// NewDeadline starts a budget of timeout on clk followed by grace on
// the wall clock.
func NewDeadline(clk Clock, timeout, grace time.Duration) *Deadline {
	if clk == System {
		grace = 0
	}
	return &Deadline{clk: clk, at: clk.Now().Add(timeout), grace: grace}
}

// Done returns a channel closed once both budgets are spent. The first
// call arms the scenario timer; a Deadline that is only Polled arms
// none.
func (d *Deadline) Done() <-chan struct{} {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.done == nil {
		d.done = make(chan struct{})
		d.scen = d.clk.AfterFunc(d.at.Sub(d.clk.Now()), d.scenarioSpent)
	}
	return d.done
}

func (d *Deadline) scenarioSpent() {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch {
	case d.stopped:
	case d.grace <= 0:
		close(d.done)
	default:
		d.wall = System.AfterFunc(d.grace, func() { close(d.done) })
	}
}

// Stop releases the timers Done armed, so a wait that succeeded leaves
// nothing behind for an unpaced scenario clock to run forward to.
func (d *Deadline) Stop() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stopped = true
	if d.scen != nil {
		d.scen.Stop()
	}
	if d.wall != nil {
		d.wall.Stop()
	}
}

// Poll sleeps one step in the domain the remaining budget is in — 5 ms
// of scenario time up to the deadline, then 1 ms of wall time through
// the grace — and reports false, without sleeping, once nothing is
// left. It is for one goroutine.
func (d *Deadline) Poll() bool {
	if remain := d.at.Sub(d.clk.Now()); remain > 0 {
		d.clk.Sleep(min(remain, 5*time.Millisecond))
		return true
	}
	if d.wallEnd.IsZero() {
		d.wallEnd = System.Now().Add(d.grace)
	}
	if !System.Now().Before(d.wallEnd) {
		return false
	}
	System.Sleep(time.Millisecond)
	return true
}
