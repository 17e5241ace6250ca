package kube

import "repro/internal/obs"

// BindBus streams pod phase transitions onto the event bus as "pod"
// events (pod name, phase, bound node, restart count). Only phase
// changes are published — a watch MODIFIED that leaves the phase
// unchanged (a restart-count bump mid-phase, a label edit) is
// suppressed so the stream carries lifecycle signal, not churn.
// Deletions surface with phase "Deleted". The underlying watch is
// closed by Cluster.Stop; BindBus after Stop is a no-op.
func (c *Cluster) BindBus(bus *obs.Bus) {
	if bus == nil {
		return
	}
	c.mu.Lock()
	if c.stopped || c.busWatch != nil {
		c.mu.Unlock()
		return
	}
	w := c.api.watchPods(nil)
	c.busWatch = w
	c.mu.Unlock()
	go func() {
		last := map[string]PodPhase{}
		for ev := range w.C {
			name := ev.Pod.Name
			if ev.Type == Deleted {
				delete(last, name)
				bus.Publish("pod", map[string]any{"pod": name, "phase": "Deleted"})
				continue
			}
			phase := ev.Pod.Status.Phase
			if last[name] == phase {
				continue
			}
			last[name] = phase
			bus.Publish("pod", map[string]any{
				"pod":      name,
				"phase":    string(phase),
				"node":     ev.Pod.Status.NodeName,
				"restarts": ev.Pod.Status.Restarts,
			})
		}
	}()
}
