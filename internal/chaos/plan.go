// Package chaos implements Digibox's scene-driven fault-injection
// engine: deterministic, seeded plans of timed fault events applied to
// the broker, cluster, and device layers of a running testbed.
//
// A Plan is a list of Events, each scheduled at an offset from plan
// start and scoped by digi name, broker client, topic filter, or node.
// The engine resolves all randomness (jitter) up front from the plan
// seed, so a compiled schedule — and therefore the sequence of fault
// records it writes into the trace log — is a pure function of
// (plan, seed) and replays identically across runs.
package chaos

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/yamlite"
)

// Fault enumerates the injectable fault kinds.
type Fault string

const (
	// Broker layer.
	FaultDisconnect Fault = "disconnect" // force-close a client connection
	FaultDrop       Fault = "drop"       // drop matching messages at delivery
	FaultDelay      Fault = "delay"      // delay matching messages at delivery
	FaultDuplicate  Fault = "duplicate"  // duplicate matching messages
	FaultPartition  Fault = "partition"  // split clients into isolated groups
	FaultHeal       Fault = "heal"       // clear a partition
	// Kube layer.
	FaultNodeDown Fault = "node-down" // mark a node NotReady; evict its pods
	FaultNodeUp   Fault = "node-up"   // bring a node back
	FaultPodCrash Fault = "pod-crash" // crash a digi's pod once
	// Device layer.
	FaultStuck   Fault = "stuck"   // sensor reading frozen at current value
	FaultDropout Fault = "dropout" // sensor silent (no events, no publishes)
	FaultOutlier Fault = "outlier" // sensor occasionally spikes out of range
	FaultClear   Fault = "clear"   // clear an injected device fault
	// Swarm layer.
	FaultShardKill      Fault = "shard-kill"      // crash a broker shard; failover takes over
	FaultShardPartition Fault = "shard-partition" // sever a shard's bridge links both ways
	FaultShardRevive    Fault = "shard-revive"    // bring a killed shard back
)

// faultKinds is the closed set of valid Fault values.
var faultKinds = map[Fault]bool{
	FaultDisconnect: true, FaultDrop: true, FaultDelay: true,
	FaultDuplicate: true, FaultPartition: true, FaultHeal: true,
	FaultNodeDown: true, FaultNodeUp: true, FaultPodCrash: true,
	FaultStuck: true, FaultDropout: true, FaultOutlier: true,
	FaultClear: true, FaultShardKill: true, FaultShardPartition: true,
	FaultShardRevive: true,
}

// shardFault reports whether f targets a swarm broker shard.
func shardFault(f Fault) bool {
	return f == FaultShardKill || f == FaultShardPartition || f == FaultShardRevive
}

// Event is one scheduled fault. Which scope and parameter fields are
// meaningful depends on the fault kind; Validate enforces the pairing.
type Event struct {
	// At is the offset from plan start at which the fault fires.
	At time.Duration
	// Fault is the fault kind.
	Fault Fault
	// Digi scopes device faults and pod-crash to a digi by name.
	Digi string
	// Node scopes node-down/node-up to a cluster node.
	Node string
	// Client scopes broker faults to a client ID (receiver side for
	// message faults, the victim for disconnect). Empty = any client.
	Client string
	// From scopes message faults to a publisher identity.
	From string
	// Topic scopes message faults to an MQTT topic filter.
	Topic string
	// Groups lists the partition groups (client/digi identities);
	// clients not listed are unaffected.
	Groups [][]string
	// Rate is the drop/duplicate probability in [0,1].
	Rate float64
	// Delay is the added delivery latency for FaultDelay.
	Delay time.Duration
	// For bounds the fault: the engine schedules the matching revert
	// (remove rule, heal, node-up, clear) at At+For. Zero = until a
	// later event reverts it explicitly.
	For time.Duration
	// Value parameterizes device faults (stuck-at value, outlier
	// magnitude). Zero means "use the sensor's current/default".
	Value float64
	// Jitter widens At by a seeded random offset in [0, Jitter),
	// resolved at compile time so schedules stay deterministic.
	Jitter time.Duration
	// Shard scopes swarm faults (shard-kill, shard-partition,
	// shard-revive) to a broker shard index. -1 when the event does
	// not carry one; 0 is a valid shard.
	Shard int
}

// Plan is a named, seeded fault schedule.
type Plan struct {
	Name   string
	Seed   int64
	Events []Event
}

// Validate checks structural validity: known fault kinds, rates in
// [0,1], non-negative offsets, and required scope fields per kind.
func (p *Plan) Validate() error {
	var errs []string
	bad := func(i int, format string, args ...any) {
		errs = append(errs, fmt.Sprintf("event %d: %s", i, fmt.Sprintf(format, args...)))
	}
	for i, ev := range p.Events {
		if !faultKinds[ev.Fault] {
			bad(i, "unknown fault kind %q", ev.Fault)
			continue
		}
		if ev.At < 0 || ev.For < 0 || ev.Delay < 0 || ev.Jitter < 0 {
			bad(i, "%s: negative duration", ev.Fault)
		}
		if ev.Rate < 0 || ev.Rate > 1 {
			bad(i, "%s: rate %v outside [0,1]", ev.Fault, ev.Rate)
		}
		switch ev.Fault {
		case FaultDisconnect:
			if ev.Client == "" {
				bad(i, "disconnect: missing client")
			}
		case FaultDrop, FaultDuplicate:
			if ev.Rate == 0 {
				bad(i, "%s: missing rate", ev.Fault)
			}
		case FaultDelay:
			if ev.Delay == 0 {
				bad(i, "delay: missing delay_ms")
			}
		case FaultPartition:
			if len(ev.Groups) < 2 {
				bad(i, "partition: need at least two groups")
			}
		case FaultNodeDown, FaultNodeUp:
			if ev.Node == "" {
				bad(i, "%s: missing node", ev.Fault)
			}
		case FaultPodCrash, FaultStuck, FaultDropout, FaultOutlier, FaultClear:
			if ev.Digi == "" {
				bad(i, "%s: missing digi", ev.Fault)
			}
		case FaultShardKill, FaultShardPartition, FaultShardRevive:
			if ev.Shard < 0 {
				bad(i, "%s: missing shard", ev.Fault)
			}
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("chaos: invalid plan %q:\n  %s", p.Name, strings.Join(errs, "\n  "))
	}
	return nil
}

// End returns the offset at which the last scheduled event (including
// compiled reverts) fires, ignoring jitter.
func (p *Plan) End() time.Duration {
	var end time.Duration
	for _, ev := range p.Events {
		t := ev.At + ev.For
		if t > end {
			end = t
		}
	}
	return end
}

// ParsePlan decodes a YAML plan document:
//
//	plan: flaky-wifi
//	seed: 42
//	events:
//	  - at_ms: 100
//	    fault: drop
//	    topic: digibox/#
//	    rate: 0.5
//	    for_ms: 400
func ParsePlan(data []byte) (*Plan, error) {
	v, err := yamlite.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	p, err := PlanFromValue(v)
	if err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// PlanFromValue builds a Plan from a generic decoded value (a YAML
// setup section or a JSON control-API body). It does not Validate.
func PlanFromValue(v any) (*Plan, error) {
	m, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("chaos: plan must be a mapping, got %T", v)
	}
	p := &Plan{}
	p.Name, _ = m["plan"].(string)
	if p.Name == "" {
		p.Name, _ = m["name"].(string)
	}
	p.Seed = asInt(m["seed"])
	evs, ok := m["events"].([]any)
	if !ok && m["events"] != nil {
		return nil, fmt.Errorf("chaos: events must be a sequence, got %T", m["events"])
	}
	for i, raw := range evs {
		em, ok := raw.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("chaos: event %d must be a mapping, got %T", i, raw)
		}
		ev := Event{
			At:     time.Duration(asInt(em["at_ms"])) * time.Millisecond,
			Fault:  Fault(str(em["fault"])),
			Digi:   str(em["digi"]),
			Node:   str(em["node"]),
			Client: str(em["client"]),
			From:   str(em["from"]),
			Topic:  str(em["topic"]),
			Rate:   asFloat(em["rate"]),
			Delay:  time.Duration(asInt(em["delay_ms"])) * time.Millisecond,
			For:    time.Duration(asInt(em["for_ms"])) * time.Millisecond,
			Value:  asFloat(em["value"]),
			Jitter: time.Duration(asInt(em["jitter_ms"])) * time.Millisecond,
			Shard:  -1,
		}
		if s, ok := em["shard"]; ok {
			ev.Shard = int(asInt(s))
		}
		if gs, ok := em["groups"].([]any); ok {
			for _, g := range gs {
				members, ok := g.([]any)
				if !ok {
					return nil, fmt.Errorf("chaos: event %d: each partition group must be a sequence", i)
				}
				var group []string
				for _, mem := range members {
					group = append(group, str(mem))
				}
				ev.Groups = append(ev.Groups, group)
			}
		}
		p.Events = append(p.Events, ev)
	}
	return p, nil
}

// Value renders the plan as a generic value suitable for yamlite/JSON
// encoding — the inverse of PlanFromValue.
func (p *Plan) Value() any {
	m := map[string]any{"plan": p.Name}
	if p.Seed != 0 {
		m["seed"] = p.Seed
	}
	var evs []any
	for _, ev := range p.Events {
		em := map[string]any{
			"at_ms": int64(ev.At / time.Millisecond),
			"fault": string(ev.Fault),
		}
		setIf := func(k, v string) {
			if v != "" {
				em[k] = v
			}
		}
		setIf("digi", ev.Digi)
		setIf("node", ev.Node)
		setIf("client", ev.Client)
		setIf("from", ev.From)
		setIf("topic", ev.Topic)
		if ev.Rate != 0 {
			em["rate"] = ev.Rate
		}
		if ev.Delay != 0 {
			em["delay_ms"] = int64(ev.Delay / time.Millisecond)
		}
		if ev.For != 0 {
			em["for_ms"] = int64(ev.For / time.Millisecond)
		}
		if ev.Value != 0 {
			em["value"] = ev.Value
		}
		if ev.Jitter != 0 {
			em["jitter_ms"] = int64(ev.Jitter / time.Millisecond)
		}
		if shardFault(ev.Fault) {
			// Always emitted for shard faults: 0 is a valid shard index,
			// so presence — not non-zero-ness — carries the information.
			em["shard"] = int64(ev.Shard)
		}
		if len(ev.Groups) > 0 {
			var gs []any
			for _, g := range ev.Groups {
				var members []any
				for _, mem := range g {
					members = append(members, mem)
				}
				gs = append(gs, members)
			}
			em["groups"] = gs
		}
		evs = append(evs, em)
	}
	if evs != nil {
		m["events"] = evs
	}
	return m
}

// Targets returns the distinct digi names and topic filters the plan
// references, for static validation (vet rule V013).
func (p *Plan) Targets() (digis, topics []string) {
	dset, tset := map[string]bool{}, map[string]bool{}
	for _, ev := range p.Events {
		if ev.Digi != "" {
			dset[ev.Digi] = true
		}
		if ev.Topic != "" {
			tset[ev.Topic] = true
		}
	}
	for d := range dset {
		digis = append(digis, d)
	}
	for t := range tset {
		topics = append(topics, t)
	}
	sort.Strings(digis)
	sort.Strings(topics)
	return digis, topics
}

func str(v any) string {
	s, _ := v.(string)
	return s
}

func asInt(v any) int64 {
	switch n := v.(type) {
	case int64:
		return n
	case int:
		return int64(n)
	case float64:
		return int64(n)
	}
	return 0
}

func asFloat(v any) float64 {
	switch n := v.(type) {
	case float64:
		return n
	case int64:
		return float64(n)
	case int:
		return float64(n)
	}
	return 0
}
