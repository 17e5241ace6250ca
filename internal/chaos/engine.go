package chaos

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/trace"
)

// BrokerInjector is the broker-layer fault surface. *broker.Broker is
// adapted to this interface by the core testbed.
type BrokerInjector interface {
	// Disconnect force-closes a client's connection; reports whether
	// the client was connected.
	Disconnect(clientID string) bool
	// AddMessageFault installs a delivery-time drop/delay/duplicate
	// rule and returns a remover.
	AddMessageFault(f MessageFault) (remove func())
	// SetPartitions isolates the listed identity groups from each
	// other; unlisted identities are unaffected.
	SetPartitions(groups [][]string)
	// ClearPartitions heals any active partition.
	ClearPartitions()
	// SetFaultSeed seeds the broker's per-message fault sampling.
	SetFaultSeed(seed int64)
}

// MessageFault scopes a delivery-time message fault. Empty scope
// fields match any value.
type MessageFault struct {
	Client   string        // receiving client ID
	From     string        // publishing identity
	Topic    string        // topic filter
	DropRate float64       // probability a matching delivery is dropped
	DupRate  float64       // probability a matching delivery is duplicated
	Delay    time.Duration // added delivery latency
}

// ClusterInjector is the kube-layer fault surface.
type ClusterInjector interface {
	KillNode(name string) error
	ReviveNode(name string) error
	// CrashPod crashes the pod backing the named digi once; the
	// cluster's restart policy brings it back.
	CrashPod(digi string) error
}

// DeviceInjector is the device-layer fault surface (sensor fault
// modes applied through the model's config machinery).
type DeviceInjector interface {
	SetFault(digi, mode string, value float64) error
	ClearFault(digi string) error
}

// SwarmInjector is the swarm-layer fault surface. *swarm.Pool
// satisfies it directly: KillShard crashes a shard's broker (the
// pool detects the death and fails over),
// ReviveShard brings it back, PartitionShard/HealShard sever and
// restore its bridge links.
type SwarmInjector interface {
	KillShard(shard int) error
	ReviveShard(shard int) error
	PartitionShard(shard int) error
	HealShard(shard int) error
}

// Engine applies compiled plans to a set of injectors and records
// every injected fault and revert into the trace log.
type Engine struct {
	Broker  BrokerInjector
	Cluster ClusterInjector
	Devices DeviceInjector
	Swarm   SwarmInjector
	Log     *trace.Log
	// Obs, when set, counts injected/recovered faults and times
	// inject→revert windows. The recovered counter joins the shared
	// faults-recovered family (see obs.FaultsRecoveredName) under
	// via="revert".
	Obs *obs.Registry
	// Clock is the time source for the real-time schedule walk and
	// recovery-latency timing. Nil means the wall clock; the replay
	// engine drives a Walker directly from its virtual clock instead.
	Clock clock.Clock
	// Bus, when set, receives a "fault" event for every inject and
	// revert so live consumers (the dashboard's SSE stream) see the
	// chaos timeline as it happens.
	Bus *obs.Bus
}

// clk returns the engine's clock, defaulting to the wall clock.
func (e *Engine) clk() clock.Clock { return clock.Or(e.Clock) }

// engineMetrics is resolved once per Run from Engine.Obs.
type engineMetrics struct {
	injected  *obs.CounterVec // by fault kind and target
	recovered *obs.Counter    // shared family, via=revert
	recovery  *obs.Histogram  // inject → revert elapsed
}

func (e *Engine) bindMetrics() *engineMetrics {
	if e.Obs == nil {
		return nil
	}
	return &engineMetrics{
		injected: e.Obs.CounterVec(obs.FaultsInjectedName,
			"faults injected by the chaos engine", "fault", "target"),
		recovered: e.Obs.CounterVec(obs.FaultsRecoveredName,
			"faults recovered (chaos reverts and runtime reconnects)", "via").With("revert"),
		recovery: e.Obs.Histogram("digibox_chaos_recovery_seconds",
			"fault inject → revert elapsed time", nil),
	}
}

// target names the fault's subject for the injected-counter label.
func target(ev Event) string {
	switch {
	case shardFault(ev.Fault):
		return fmt.Sprintf("shard-%d", ev.Shard)
	case ev.Digi != "":
		return ev.Digi
	case ev.Node != "":
		return ev.Node
	case ev.Client != "":
		return ev.Client
	case ev.Topic != "":
		return ev.Topic
	}
	return "broker"
}

// Step is one entry of a compiled schedule: either an Event firing or
// the compiled revert of an earlier bounded event.
type Step struct {
	At       time.Duration
	Event    Event
	Index    int // index into Plan.Events
	RevertOf int // -1 for the event itself; else the Index it reverts
}

// Compile resolves a plan into a deterministic schedule: jitter is
// sampled from the plan seed in event order, and every bounded event
// (For > 0) expands into an explicit revert step at At+For. The result
// is a pure function of (plan, seed).
func Compile(p *Plan) ([]Step, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	jitter := rng.New(uint64(p.Seed), 0)
	var steps []Step
	for i, ev := range p.Events {
		at := ev.At
		if ev.Jitter > 0 {
			at += time.Duration(jitter.Int63n(int64(ev.Jitter)))
		}
		resolved := ev
		resolved.At = at
		steps = append(steps, Step{At: at, Event: resolved, Index: i, RevertOf: -1})
		if ev.For > 0 && revertible(ev.Fault) {
			steps = append(steps, Step{At: at + ev.For, Event: resolved, Index: i, RevertOf: i})
		}
	}
	sort.SliceStable(steps, func(a, b int) bool { return steps[a].At < steps[b].At })
	return steps, nil
}

// revertible reports whether a For-bounded event of this kind has a
// meaningful compiled revert.
func revertible(f Fault) bool {
	switch f {
	case FaultDrop, FaultDelay, FaultDuplicate, FaultPartition,
		FaultNodeDown, FaultStuck, FaultDropout, FaultOutlier,
		FaultShardKill, FaultShardPartition:
		return true
	}
	return false
}

// Report summarizes one engine run.
type Report struct {
	Plan     string   `json:"plan"`
	Seed     int64    `json:"seed"`
	Injected int      `json:"injected"`
	Reverted int      `json:"reverted"`
	Skipped  []string `json:"skipped,omitempty"`
	// Applied lists the canonical signature line of every fault and
	// revert, in firing order.
	Applied []string `json:"applied,omitempty"`
}

// Run compiles the plan and walks the schedule in real time, applying
// each step through the injectors. It blocks until the last step has
// fired or ctx is cancelled. Injector errors skip the step (recorded
// in the report) rather than aborting the run.
func (e *Engine) Run(ctx context.Context, p *Plan) (*Report, error) {
	steps, err := Compile(p)
	if err != nil {
		return nil, err
	}
	w := e.NewWalker(p)
	clk := e.clk()
	start := clk.Now()
	for _, st := range steps {
		if err := clock.SleepUntil(ctx, clk, start.Add(st.At)); err != nil {
			return w.Report(), err
		}
		w.Apply(st)
	}
	return w.Report(), nil
}

// Walker applies a compiled schedule one step at a time, accumulating
// the run report. Run drives it in real time; the deterministic
// replay engine drives the same Walker from a virtual clock, so
// recorded and replayed chaos runs log identical fault sequences.
type Walker struct {
	e       *Engine
	rep     *Report
	metrics *engineMetrics
	reverts map[int]func()
	applied map[int]time.Time // inject wall time, for recovery latency
}

// NewWalker seeds the broker's fault sampling from the plan and
// returns a walker for its compiled schedule.
func (e *Engine) NewWalker(p *Plan) *Walker {
	if e.Broker != nil {
		e.Broker.SetFaultSeed(p.Seed)
	}
	return &Walker{
		e:       e,
		rep:     &Report{Plan: p.Name, Seed: p.Seed},
		metrics: e.bindMetrics(),
		reverts: map[int]func(){},
		applied: map[int]time.Time{},
	}
}

// Report returns the accumulated run report.
func (w *Walker) Report() *Report { return w.rep }

// Apply fires one compiled step through the injectors, logging the
// fault (or revert) and updating the report. Injector errors skip the
// step rather than aborting.
func (w *Walker) Apply(st Step) {
	e, rep, metrics := w.e, w.rep, w.metrics
	if st.RevertOf >= 0 {
		fn := w.reverts[st.RevertOf]
		if fn == nil {
			return
		}
		delete(w.reverts, st.RevertOf)
		fn()
		rep.Reverted++
		if metrics != nil {
			metrics.recovered.Inc()
			if t0, ok := w.applied[st.RevertOf]; ok {
				metrics.recovery.Observe(w.e.clk().Since(t0).Seconds())
			}
		}
		line := revertSignature(st.Event)
		rep.Applied = append(rep.Applied, line)
		e.logFault(st.Event, "revert", line)
		e.Bus.Publish("fault", map[string]any{
			"action":    "recover",
			"fault":     string(st.Event.Fault),
			"target":    target(st.Event),
			"signature": line,
		})
		return
	}
	revert, err := e.apply(st.Event)
	if err != nil {
		rep.Skipped = append(rep.Skipped, fmt.Sprintf("%s: %v", eventSignature(st.Event), err))
		return
	}
	if revert != nil {
		w.reverts[st.Index] = revert
		if metrics != nil {
			w.applied[st.Index] = w.e.clk().Now()
		}
	}
	rep.Injected++
	if metrics != nil {
		metrics.injected.With(string(st.Event.Fault), target(st.Event)).Inc()
	}
	line := eventSignature(st.Event)
	rep.Applied = append(rep.Applied, line)
	e.logFault(st.Event, string(st.Event.Fault), line)
	e.Bus.Publish("fault", map[string]any{
		"action":    "inject",
		"fault":     string(st.Event.Fault),
		"target":    target(st.Event),
		"signature": line,
	})
}

// apply injects one event and returns its revert (nil if the event is
// not For-bounded or not revertible).
func (e *Engine) apply(ev Event) (func(), error) {
	switch ev.Fault {
	case FaultDisconnect:
		if e.Broker == nil {
			return nil, fmt.Errorf("no broker injector")
		}
		if !e.Broker.Disconnect(ev.Client) {
			return nil, fmt.Errorf("client %q not connected", ev.Client)
		}
		return nil, nil
	case FaultDrop, FaultDelay, FaultDuplicate:
		if e.Broker == nil {
			return nil, fmt.Errorf("no broker injector")
		}
		f := MessageFault{Client: ev.Client, From: ev.From, Topic: ev.Topic, Delay: ev.Delay}
		switch ev.Fault {
		case FaultDrop:
			f.DropRate = ev.Rate
		case FaultDuplicate:
			f.DupRate = ev.Rate
		}
		remove := e.Broker.AddMessageFault(f)
		return remove, nil
	case FaultPartition:
		if e.Broker == nil {
			return nil, fmt.Errorf("no broker injector")
		}
		e.Broker.SetPartitions(ev.Groups)
		return e.Broker.ClearPartitions, nil
	case FaultHeal:
		if e.Broker == nil {
			return nil, fmt.Errorf("no broker injector")
		}
		e.Broker.ClearPartitions()
		return nil, nil
	case FaultNodeDown:
		if e.Cluster == nil {
			return nil, fmt.Errorf("no cluster injector")
		}
		if err := e.Cluster.KillNode(ev.Node); err != nil {
			return nil, err
		}
		node := ev.Node
		return func() { _ = e.Cluster.ReviveNode(node) }, nil
	case FaultNodeUp:
		if e.Cluster == nil {
			return nil, fmt.Errorf("no cluster injector")
		}
		return nil, e.Cluster.ReviveNode(ev.Node)
	case FaultPodCrash:
		if e.Cluster == nil {
			return nil, fmt.Errorf("no cluster injector")
		}
		return nil, e.Cluster.CrashPod(ev.Digi)
	case FaultStuck, FaultDropout, FaultOutlier:
		if e.Devices == nil {
			return nil, fmt.Errorf("no device injector")
		}
		if err := e.Devices.SetFault(ev.Digi, string(ev.Fault), ev.Value); err != nil {
			return nil, err
		}
		digi := ev.Digi
		return func() { _ = e.Devices.ClearFault(digi) }, nil
	case FaultClear:
		if e.Devices == nil {
			return nil, fmt.Errorf("no device injector")
		}
		return nil, e.Devices.ClearFault(ev.Digi)
	case FaultShardKill:
		if e.Swarm == nil {
			return nil, fmt.Errorf("no swarm injector")
		}
		if err := e.Swarm.KillShard(ev.Shard); err != nil {
			return nil, err
		}
		shard := ev.Shard
		return func() { _ = e.Swarm.ReviveShard(shard) }, nil
	case FaultShardPartition:
		if e.Swarm == nil {
			return nil, fmt.Errorf("no swarm injector")
		}
		if err := e.Swarm.PartitionShard(ev.Shard); err != nil {
			return nil, err
		}
		shard := ev.Shard
		return func() { _ = e.Swarm.HealShard(shard) }, nil
	case FaultShardRevive:
		if e.Swarm == nil {
			return nil, fmt.Errorf("no swarm injector")
		}
		return nil, e.Swarm.ReviveShard(ev.Shard)
	}
	return nil, fmt.Errorf("unknown fault %q", ev.Fault)
}

// logFault records one applied step. Fields carry only plan-derived
// scalars so two runs of the same compiled schedule log identical
// sequences.
func (e *Engine) logFault(ev Event, fault, detail string) {
	if e.Log == nil {
		return
	}
	fields := map[string]any{"at_ms": int64(ev.At / time.Millisecond)}
	if ev.Digi != "" {
		fields["digi"] = ev.Digi
	}
	if ev.Node != "" {
		fields["node"] = ev.Node
	}
	if ev.Client != "" {
		fields["client"] = ev.Client
	}
	if ev.Topic != "" {
		fields["topic"] = ev.Topic
	}
	if ev.Rate != 0 {
		fields["rate"] = ev.Rate
	}
	if shardFault(ev.Fault) {
		fields["shard"] = int64(ev.Shard)
	}
	name := ev.Digi
	if name == "" {
		name = ev.Node
	}
	if name == "" {
		name = ev.Client
	}
	if name == "" {
		if shardFault(ev.Fault) {
			name = fmt.Sprintf("shard-%d", ev.Shard)
		} else {
			name = "broker"
		}
	}
	e.Log.Append(trace.Record{Kind: trace.KindFault, Name: name, Type: "chaos",
		Fault: fault, Detail: detail, Fields: fields})
}

// eventSignature renders an event as a canonical one-line signature.
func eventSignature(ev Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%dms %s", ev.At/time.Millisecond, ev.Fault)
	add := func(k, v string) {
		if v != "" {
			fmt.Fprintf(&b, " %s=%s", k, v)
		}
	}
	add("digi", ev.Digi)
	add("node", ev.Node)
	add("client", ev.Client)
	add("from", ev.From)
	add("topic", ev.Topic)
	if shardFault(ev.Fault) {
		fmt.Fprintf(&b, " shard=%d", ev.Shard)
	}
	if ev.Rate != 0 {
		fmt.Fprintf(&b, " rate=%g", ev.Rate)
	}
	if ev.Delay != 0 {
		fmt.Fprintf(&b, " delay=%dms", ev.Delay/time.Millisecond)
	}
	if ev.For != 0 {
		fmt.Fprintf(&b, " for=%dms", ev.For/time.Millisecond)
	}
	if ev.Value != 0 {
		fmt.Fprintf(&b, " value=%g", ev.Value)
	}
	if len(ev.Groups) > 0 {
		var gs []string
		for _, g := range ev.Groups {
			gs = append(gs, strings.Join(g, "+"))
		}
		fmt.Fprintf(&b, " groups=%s", strings.Join(gs, "|"))
	}
	return b.String()
}

func revertSignature(ev Event) string {
	return fmt.Sprintf("%dms revert %s", (ev.At+ev.For)/time.Millisecond, eventSignature(ev))
}

// Signature extracts the canonical engine-injected fault signature
// lines from a trace, in order. Two runs of the same seeded plan
// produce equal signatures — the replayability contract tests assert
// on. Runtime-emitted fault records (gap markers, whose causes and
// timing depend on scheduling) are excluded.
func Signature(recs []trace.Record) []string {
	var out []string
	for _, r := range recs {
		if r.Kind == trace.KindFault && r.Type == "chaos" {
			out = append(out, r.Fault+": "+r.Detail)
		}
	}
	return out
}
