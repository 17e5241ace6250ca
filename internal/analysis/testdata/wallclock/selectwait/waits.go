// Fixture: loaded as a runtime package (repro/internal/swarm). A select
// case on an injected clock's After is a wait that stays armed when
// another case wins; clock.SleepUntil is the one wait beside a context.
package swarm

import (
	"context"
	"time"

	"repro/internal/clock"
)

type worker struct {
	clk  clock.Clock
	done chan struct{}
}

func (w *worker) pace(ctx context.Context, d time.Duration) error {
	select {
	case <-w.clk.After(d): // want `select on a clock's After`
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (w *worker) paceAssign(ctx context.Context, d time.Duration) (time.Time, error) {
	select {
	case at := <-w.clk.After(d): // want `select on a clock's After`
		return at, nil
	case <-ctx.Done():
		return time.Time{}, ctx.Err()
	}
}

func paceSystem(ctx context.Context) {
	select {
	case <-clock.System.After(time.Second): // want `select on a clock's After`
	case <-ctx.Done():
	}
}

// time.After in a select is the direct-access finding, reported once.
func paceWall(ctx context.Context) {
	select {
	case <-time.After(time.Second): // want `direct time\.After`
	case <-ctx.Done():
	}
}

// The clean shape: an absolute instant, one wait.
func (w *worker) paceUntil(ctx context.Context, at time.Time) error {
	return clock.SleepUntil(ctx, w.clk, at)
}

// A bare receive outside a select has no other case to lose to.
func (w *worker) sleep(d time.Duration) {
	<-w.clk.After(d)
}

func (w *worker) backoff(d time.Duration) {
	select {
	case <-w.done:
	case <-w.clk.After(d): //dbox:allow wallclock -- waits on a close channel, not a context
	}
}
