package clock

import (
	"context"
	"time"
)

// SleepUntil blocks until clk reads at or later, or until ctx ends, in
// which case it returns ctx.Err(). It is the runtime's one pacing wait:
// waiting on an absolute instant keeps a schedule from drifting when
// another goroutine moves the clock between a read and the arm.
//
// On a *Scaled that Drive runs unpaced, a wait that no
// armed timer precedes, made while no Step callback runs, is granted in
// place: the clock moves to at and nothing is armed. The driver would
// have fired that timer next, so the grant is one interleaving it
// already allows. Every other wait arms one timer at at, and a wait
// that ctx ends stops it, leaving nothing for an unpaced clock to run
// forward to.
func SleepUntil(ctx context.Context, clk Clock, at time.Time) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if s, ok := clk.(*Scaled); ok && s.grant(at) {
		return nil
	}
	fired := make(chan struct{})
	wake := func() { close(fired) }
	var t Timer
	switch c := clk.(type) {
	case *Scaled:
		t = c.afterFuncAt(at, wake)
	case *Virtual:
		t = c.afterFuncAt(at, wake)
	default:
		if d := at.Sub(clk.Now()); d > 0 {
			t = clk.AfterFunc(d, wake)
		}
	}
	if t == nil {
		return nil
	}
	select {
	case <-fired:
		return nil
	case <-ctx.Done():
		t.Stop()
		return ctx.Err()
	}
}
