package digi

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/clock"
	"repro/internal/kube"
	"repro/internal/model"
)

func (rt *Runtime) workload(name string, inc uint64) kube.Workload {
	return kube.WorkloadFunc(func(ctx context.Context) error {
		return rt.run(ctx, name, inc)
	})
}

// ImageFactory adapts the runtime to the cluster image registry: the
// pod env carries the instance name under "name" and, for a digi
// started through Expect, its incarnation under "incarnation".
func (rt *Runtime) ImageFactory() kube.ImageFactory {
	return func(env map[string]any) (kube.Workload, error) {
		name, _ := env["name"].(string)
		if name == "" {
			return nil, fmt.Errorf("digi: image env needs a name")
		}
		inc, _ := env["incarnation"].(uint64)
		return rt.workload(name, inc), nil
	}
}

// reconciler is the single-goroutine live wrapper around a Stepper:
// it owns the store watcher and ticker, and delegates the actual
// tick/simulate/update logic to the Stepper it shares with the
// deterministic replay engine.
//
// It is level-triggered: a Simulate reads the store's current state,
// so it answers every update committed before it started, however many
// are still queued. seen is the store generation read before the last
// update-driven Simulate took its inputs; a queued update no newer
// than that is only logged, not simulated again. The child commits its
// own Simulate runs make never reach it: the Stepper commits them
// through the reconciler's watcher, which the store skips.
type reconciler struct {
	s    *Stepper
	seen uint64
}

func (rt *Runtime) run(ctx context.Context, name string, inc uint64) error {
	s, err := rt.NewStepper(ctx, name)
	if err != nil {
		return err
	}
	// Read before the watcher registers, and not advanced by the boot
	// Simulate below: every update the watcher queues is newer, so the
	// first one always simulates (a mock publishes at boot and again
	// when attach parks its generator, however the two interleave).
	r := &reconciler{s: s, seen: rt.Store.Gen()}

	// One watcher covers the digi's own model plus (for scenes) the
	// attached children. It is indexed under the own name before the
	// attach list is read, so no attach edit is missed, and re-indexed
	// on each one: dynamic re-attach (device mobility, §5).
	w := rt.Store.WatchNames(name)
	defer w.Close()
	s.via = w
	doc, _, _ := rt.Store.View(name)
	if att := doc.Attach(); len(att) > 0 {
		w.SetNames(append(att, name)...)
	}

	// The Loop ticker is armed only while the model is managed: a
	// parked digi's Tick would return at once, and a timer that fires
	// for nothing keeps the testbed clock busy (DESIGN.md's clock rule).
	var ticker clock.Ticker
	var ticks <-chan time.Time
	arm := func(doc model.Doc) {
		if want := s.kind.Loop != nil && doc.Managed(); want && ticker == nil {
			ticker = rt.clk().NewTicker(s.Interval())
			ticks = ticker.C()
		} else if !want && ticker != nil {
			ticker.Stop()
			ticker, ticks = nil, nil
		}
	}
	arm(doc)
	defer func() {
		if ticker != nil {
			ticker.Stop()
		}
	}()

	// Log the initial model snapshot so traces are self-contained
	// (replay and offline property checking reconstruct state without
	// the original testbed). It is logged before the digi reports ready,
	// so no write made once Run has returned is logged ahead of it.
	s.LogSnapshot()

	// The watcher is registered: no subsequent update can be missed.
	rt.markReady(name, inc)

	// Initial simulation pass so derived state is consistent from the
	// start (e.g. lamp intensity.status derived from power at boot).
	s.Simulate()

	chain := 0 // updates handled in a row with the next one already queued
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-ticks:
			s.Tick()
		case u, ok := <-w.C:
			if !ok {
				return nil
			}
			if u.Name == name && !u.Deleted {
				if len(model.PathsUnder(u.Changes, "meta.attach")) > 0 {
					w.SetNames(append(u.Doc.Attach(), name)...)
				}
				if len(model.PathsUnder(u.Changes, "meta.managed")) > 0 {
					arm(u.Doc)
				}
			}
			r.handle(u)
			// Past an update-and-confirm pair, a chain of own commits
			// never blocks in the select: yield, or the goroutines its
			// commits woke wait on this P until the chain ends.
			if len(w.C) == 0 {
				chain = 0
			} else if chain++; chain > 1 {
				runtime.Gosched()
				chain = 0
			}
		}
	}
}

// handle is Stepper.HandleUpdate minus the Simulate runs an earlier
// one already covered. Deletes are rare and stay edge-triggered, so
// "a deleted child falls out of atts" never rests on the generation
// argument.
func (r *reconciler) handle(u model.Update) {
	rt := r.s.rt
	if !u.Deleted && u.Gen <= r.seen {
		r.s.LogUpdate(u)
		if m := rt.metrics.Load(); m != nil {
			m.coalesced.Inc()
		}
		return
	}
	r.seen = rt.Store.Gen()
	r.s.HandleUpdate(u)
}
