package replay

import (
	"fmt"

	"repro/internal/broker"
	"repro/internal/chaos"
	"repro/internal/kube"
	"repro/internal/model"
)

// This file adapts the engine's substrates to the chaos injector
// interfaces, so a scenario's fault plan exercises the same chaos
// engine code as a live run — just on the virtual clock.

// brokerInjector adapts the engine's in-process broker (identical to
// the live testbed's adapter).
type brokerInjector struct{ b *broker.Broker }

func (bi brokerInjector) Disconnect(clientID string) bool { return bi.b.Kick(clientID) }

func (bi brokerInjector) AddMessageFault(f chaos.MessageFault) (remove func()) {
	return bi.b.AddFault(broker.FaultRule{
		Client: f.Client, From: f.From, Topic: f.Topic,
		DropRate: f.DropRate, DupRate: f.DupRate, Delay: f.Delay,
	})
}

func (bi brokerInjector) SetPartitions(groups [][]string) { bi.b.SetPartitions(groups) }
func (bi brokerInjector) ClearPartitions()                { bi.b.ClearPartitions() }
func (bi brokerInjector) SetFaultSeed(seed int64)         { bi.b.SetFaultSeed(seed) }

// clusterInjector applies node and pod faults to the engine's
// deterministic pod-liveness view, reusing the live scheduler's
// placement policy (kube.PickNode) for every reschedule.
type clusterInjector struct{ e *Engine }

func (ci clusterInjector) node(name string) (*kube.Node, error) {
	for _, n := range ci.e.nodes {
		if n.Name == name {
			return n, nil
		}
	}
	return nil, fmt.Errorf("replay: node %q not found", name)
}

// KillNode marks the node NotReady and evicts its pods; evicted digis
// are rescheduled immediately if another ready node has capacity, else
// they stay pending until a node comes back.
func (ci clusterInjector) KillNode(name string) error {
	n, err := ci.node(name)
	if err != nil {
		return err
	}
	if !n.Status.Ready {
		return fmt.Errorf("replay: node %q already down", name)
	}
	n.Status.Ready = false
	for _, dn := range ci.e.order {
		if st := ci.e.digis[dn]; st != nil && st.running && st.node == name {
			ci.e.stopDigi(dn, "pod-evicted")
		}
	}
	ci.reschedulePending()
	return nil
}

// ReviveNode marks the node Ready and retries every pending pod.
func (ci clusterInjector) ReviveNode(name string) error {
	n, err := ci.node(name)
	if err != nil {
		return err
	}
	n.Status.Ready = true
	ci.reschedulePending()
	return nil
}

// CrashPod crashes a digi's pod once; the RestartAlways policy
// reschedules it immediately.
func (ci clusterInjector) CrashPod(digi string) error {
	st := ci.e.digis[digi]
	if st == nil || !st.running {
		return fmt.Errorf("replay: %q has no running pod", digi)
	}
	ci.e.stopDigi(digi, "pod-crashed")
	ci.reschedulePending()
	return nil
}

// reschedulePending places every stopped digi that fits somewhere, in
// creation order — the deterministic serialization of the live
// scheduler's retry loop.
func (ci clusterInjector) reschedulePending() {
	for _, dn := range ci.e.order {
		st := ci.e.digis[dn]
		if st == nil || st.running {
			continue
		}
		node, ok := kube.PickNode(ci.e.nodes, nil, ci.e.assigned)
		if !ok {
			continue
		}
		if err := ci.e.startDigi(dn, node); err != nil {
			ci.e.fail(err)
			return
		}
	}
}

// deviceInjector applies sensor fault modes through the model config
// machinery — the same path the live testbed takes — queueing the
// committed updates for propagation after the injecting chaos step.
type deviceInjector struct{ e *Engine }

func (di deviceInjector) SetFault(digi, mode string, value float64) error {
	if !di.e.store.Has(digi) {
		return fmt.Errorf("replay: %q not found", digi)
	}
	u, err := di.e.store.Apply(digi, func(d *model.Draft) error {
		d.Set("meta.fault", mode)
		if value != 0 {
			d.Set("meta.fault_value", value)
		}
		return nil
	})
	if err == nil && len(u.Changes) > 0 {
		di.e.queued = append(di.e.queued, u)
	}
	return err
}

func (di deviceInjector) ClearFault(digi string) error {
	if !di.e.store.Has(digi) {
		return fmt.Errorf("replay: %q not found", digi)
	}
	u, err := di.e.store.Apply(digi, func(d *model.Draft) error {
		d.Delete("meta.fault")
		d.Delete("meta.fault_value")
		return nil
	})
	if err == nil && len(u.Changes) > 0 {
		di.e.queued = append(di.e.queued, u)
	}
	return err
}
