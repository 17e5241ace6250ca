package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/broker"
	"repro/internal/chaos"
	"repro/internal/model"
)

// This file adapts the testbed's substrates to the chaos engine's
// injector interfaces and exposes the "dbox chaos run" verb: a seeded
// fault plan applied to the live broker, cluster, and device layers,
// with every injection recorded in the trace log.

// runtimeLink is the client id a chaos plan names the digi
// runtime's link to the broker by ("disconnect client=digi-runtime").
const runtimeLink = "digi-runtime"

// runtimeHealDelay is how long a severed digi runtime stays off the
// broker: the broker client's default ReconnectMin, the wait before a
// dropped session's first redial.
const runtimeHealDelay = 50 * time.Millisecond

// brokerInjector adapts the testbed's broker to chaos.BrokerInjector.
// A disconnect of the digi runtime severs its in-process link; any
// other client id is kicked off the wire.
type brokerInjector struct{ tb *Testbed }

func (bi brokerInjector) Disconnect(clientID string) bool {
	if clientID == runtimeLink {
		return bi.tb.severRuntime()
	}
	return bi.tb.Broker.Kick(clientID)
}

func (bi brokerInjector) AddMessageFault(f chaos.MessageFault) (remove func()) {
	return bi.tb.Broker.AddFault(broker.FaultRule{
		Client: f.Client, From: f.From, Topic: f.Topic,
		DropRate: f.DropRate, DupRate: f.DupRate, Delay: f.Delay,
	})
}

func (bi brokerInjector) SetPartitions(groups [][]string) { bi.tb.Broker.SetPartitions(groups) }
func (bi brokerInjector) ClearPartitions()                { bi.tb.Broker.ClearPartitions() }
func (bi brokerInjector) SetFaultSeed(seed int64)         { bi.tb.Broker.SetFaultSeed(seed) }

// severRuntime cuts the digi runtime off the broker and heals it
// runtimeHealDelay later on the testbed clock, so an outage lasts the
// same scenario time at every TimeScale. It reports false during an
// outage and after Stop.
func (tb *Testbed) severRuntime() bool {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if tb.stopped || !tb.Runtime.Sever(errors.New("broker link severed by a disconnect fault")) {
		return false
	}
	tb.heal = tb.clk.AfterFunc(runtimeHealDelay, tb.Runtime.Heal)
	return true
}

// clusterInjector adapts kube.Cluster; pod-scoped faults address digis
// by name and resolve to the backing pod.
type clusterInjector struct{ tb *Testbed }

func (ci clusterInjector) KillNode(name string) error   { return ci.tb.Cluster.KillNode(name) }
func (ci clusterInjector) ReviveNode(name string) error { return ci.tb.Cluster.ReviveNode(name) }
func (ci clusterInjector) CrashPod(digi string) error   { return ci.tb.Cluster.CrashPod(podName(digi)) }

// deviceInjector applies sensor fault modes through the model config
// machinery — the same path a user would take with "dbox edit".
type deviceInjector struct{ tb *Testbed }

func (di deviceInjector) SetFault(digi, mode string, value float64) error {
	if !di.tb.Store.Has(digi) {
		return fmt.Errorf("core: %q not found", digi)
	}
	_, err := di.tb.Store.Apply(digi, func(d model.Doc) error {
		d.Set("meta.fault", mode)
		if value != 0 {
			d.Set("meta.fault_value", value)
		}
		return nil
	})
	return err
}

func (di deviceInjector) ClearFault(digi string) error {
	if !di.tb.Store.Has(digi) {
		return fmt.Errorf("core: %q not found", digi)
	}
	_, err := di.tb.Store.Apply(digi, func(d model.Doc) error {
		d.Delete("meta.fault")
		d.Delete("meta.fault_value")
		return nil
	})
	return err
}

// ChaosEngine returns a fault engine wired to this testbed's broker,
// cluster, device, and trace layers.
func (tb *Testbed) ChaosEngine() *chaos.Engine {
	e := &chaos.Engine{
		Cluster: clusterInjector{tb},
		Devices: deviceInjector{tb},
		Log:     tb.Log,
		Obs:     tb.Obs,
		Bus:     tb.Bus,
		Clock:   tb.clk,
	}
	if tb.Broker != nil {
		e.Broker = brokerInjector{tb}
	}
	tb.mu.Lock()
	if tb.activeSwarm != nil {
		// Shard faults address the swarm run in flight; without one
		// they are skipped (recorded in the chaos report), not fatal.
		e.Swarm = tb.activeSwarm
	}
	tb.mu.Unlock()
	return e
}

// RunChaosPlan implements "dbox chaos run PLAN": apply a seeded fault
// plan to the running testbed, blocking until the last scheduled step
// (or ctx cancellation).
func (tb *Testbed) RunChaosPlan(ctx context.Context, p *chaos.Plan) (*chaos.Report, error) {
	return tb.ChaosEngine().Run(ctx, p)
}

// RunWithChaos runs the plan concurrently with a workload: the plan
// starts, during() executes against the degrading testbed, and the
// call returns once both have finished. A during() error cancels the
// remaining schedule; the partial report is still returned.
func (tb *Testbed) RunWithChaos(p *chaos.Plan, during func() error) (*chaos.Report, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type result struct {
		rep *chaos.Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := tb.RunChaosPlan(ctx, p)
		done <- result{rep, err}
	}()
	workErr := during()
	if workErr != nil {
		cancel()
	}
	r := <-done
	if workErr != nil {
		return r.rep, fmt.Errorf("core: chaos workload: %w", workErr)
	}
	if r.err != nil {
		return r.rep, r.err
	}
	return r.rep, nil
}
