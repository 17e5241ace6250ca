package digi

import (
	"context"
	"fmt"
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
// than that is only logged, not simulated again. Nor is the echo of a
// child commit the reconciler's own Simulate made: that run already
// answered the state it wrote, and any foreign commit between its read
// and its write is newer than seen and not an echo, so it still
// simulates.
type reconciler struct {
	s    *Stepper
	seen uint64
	// echoes[head:] are the generations, ascending, of the child
	// commits this reconciler's Simulate runs made whose updates have
	// not been taken off the watcher yet.
	echoes []uint64
	head   int
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

	// The watcher is registered: no subsequent update can be missed.
	rt.markReady(name, inc)

	// Log the initial model snapshot so traces are self-contained
	// (replay and offline property checking reconstruct state without
	// the original testbed).
	s.LogSnapshot()

	// Initial simulation pass so derived state is consistent from the
	// start (e.g. lamp intensity.status derived from power at boot).
	r.note(s.Simulate())

	for {
		select {
		case <-ctx.Done():
			return nil
		case <-ticks:
			r.note(s.Tick())
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
		}
	}
}

// handle is Stepper.HandleUpdate minus the Simulate runs an earlier
// one already covered. Deletes are rare and stay edge-triggered, so
// "a deleted child falls out of atts" never rests on the generation
// argument.
func (r *reconciler) handle(u model.Update) {
	rt := r.s.rt
	if echo := r.echo(u.Gen); !u.Deleted && (echo || u.Gen <= r.seen) {
		r.s.LogUpdate(u)
		if m := rt.metrics.Load(); m != nil {
			m.coalesced.Inc()
		}
		return
	}
	r.seen = rt.Store.Gen()
	r.note(r.s.HandleUpdate(u))
}

// note records the generations of the child commits among ups, the
// updates one of the reconciler's Simulate runs committed.
func (r *reconciler) note(ups []model.Update) {
	if r.head > 0 {
		n := copy(r.echoes, r.echoes[r.head:])
		r.echoes, r.head = r.echoes[:n], 0
	}
	for _, u := range ups {
		if u.Name != r.s.name {
			r.echoes = append(r.echoes, u.Gen)
		}
	}
}

// echo reports whether gen is one of the recorded child commits, and
// drops every recorded generation up to it: the watcher delivers in
// commit order, so an older echo that has not come by now (its child
// was not watched yet when it was committed) never will.
func (r *reconciler) echo(gen uint64) bool {
	for r.head < len(r.echoes) && r.echoes[r.head] < gen {
		r.head++
	}
	if r.head < len(r.echoes) && r.echoes[r.head] == gen {
		r.head++
		return true
	}
	return false
}
