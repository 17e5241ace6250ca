package digi

import (
	"context"
	"fmt"
	"repro/internal/kube"
	"repro/internal/model"
)

// Workload builds the kube workload that runs one digi instance. The
// instance's model must already exist in the runtime's store; the
// workload reconciles until its context is cancelled.
func (rt *Runtime) Workload(name string) kube.Workload {
	return kube.WorkloadFunc(func(ctx context.Context) error {
		return rt.run(ctx, name)
	})
}

// ImageFactory adapts the runtime to the cluster image registry: the
// pod env carries the instance name under "name".
func (rt *Runtime) ImageFactory() kube.ImageFactory {
	return func(env map[string]any) (kube.Workload, error) {
		name, _ := env["name"].(string)
		if name == "" {
			return nil, fmt.Errorf("digi: image env needs a name")
		}
		return rt.Workload(name), nil
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
// than that is only logged, not simulated again.
type reconciler struct {
	s    *Stepper
	seen uint64
}

func (rt *Runtime) run(ctx context.Context, name string) error {
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

	ticker := rt.clk().NewTicker(s.Interval())
	defer ticker.Stop()

	// The watcher is registered: no subsequent update can be missed.
	rt.markReady(name)

	// Log the initial model snapshot so traces are self-contained
	// (replay and offline property checking reconstruct state without
	// the original testbed).
	s.LogSnapshot()

	// Initial simulation pass so derived state is consistent from the
	// start (e.g. lamp intensity.status derived from power at boot).
	s.Simulate()

	for {
		select {
		case <-ctx.Done():
			return nil
		case <-ticker.C():
			s.Tick()
		case u, ok := <-w.C:
			if !ok {
				return nil
			}
			if u.Name == name && !u.Deleted && len(model.PathsUnder(u.Changes, "meta.attach")) > 0 {
				w.SetNames(append(u.Doc.Attach(), name)...)
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
