package broker

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rng"
)

// FaultRule is a delivery-time message fault installed by the chaos
// engine: matching publishes are dropped, duplicated, or delayed on
// their way to a subscriber. Empty scope fields match any value.
type FaultRule struct {
	// Client matches the receiving session's client ID.
	Client string
	// From matches the publishing identity (the wire client ID, or
	// the name passed to PublishQoS for in-process publishes).
	From string
	// Topic is an MQTT topic filter matched against the message topic.
	Topic string
	// DropRate is the probability a matching delivery is dropped.
	DropRate float64
	// DupRate is the probability a matching delivery is duplicated.
	DupRate float64
	// Delay is added latency before a matching delivery.
	Delay time.Duration
}

// faultState holds the broker's installed fault rules and partition
// groups. The hot routing path checks a single atomic flag before
// touching any of it, so a fault-free broker pays nothing.
type faultState struct {
	mu  sync.Mutex
	rng rng.Stream
	// rules are kept in installation order, which is the order the
	// seeded sampling consults them.
	rules  []installedRule
	nextID int
	// groups maps a client/publisher identity to its partition group;
	// identities in different groups cannot reach each other.
	groups map[string]int
}

// installedRule is a FaultRule tagged with the id its remover deletes.
type installedRule struct {
	id int
	FaultRule
}

// faultsActive reports whether any rule or partition is installed.
func (b *Broker) faultsActive() bool {
	return atomic.LoadInt32(&b.faultsOn) != 0
}

func (b *Broker) refreshFaultFlag() {
	// Callers hold b.faults.mu.
	if len(b.faults.rules) > 0 || b.faults.groups != nil {
		atomic.StoreInt32(&b.faultsOn, 1)
	} else {
		atomic.StoreInt32(&b.faultsOn, 0)
	}
}

// AddFault installs a message-fault rule and returns its remover.
func (b *Broker) AddFault(r FaultRule) (remove func()) {
	f := &b.faults
	f.mu.Lock()
	defer f.mu.Unlock()
	id := f.nextID
	f.nextID++
	f.rules = append(f.rules, installedRule{id, r})
	b.refreshFaultFlag()
	return func() {
		f.mu.Lock()
		defer f.mu.Unlock()
		f.rules = slices.DeleteFunc(f.rules, func(ir installedRule) bool { return ir.id == id })
		b.refreshFaultFlag()
	}
}

// SetPartitions splits the listed identities into mutually isolated
// groups: a message from an identity in one group is not delivered to
// sessions in another. Identities not listed are unaffected, as are
// publishes with no identity.
func (b *Broker) SetPartitions(groups [][]string) {
	f := &b.faults
	f.mu.Lock()
	defer f.mu.Unlock()
	f.groups = map[string]int{}
	for i, g := range groups {
		for _, id := range g {
			f.groups[id] = i
		}
	}
	b.refreshFaultFlag()
}

// ClearPartitions heals any active partition.
func (b *Broker) ClearPartitions() {
	f := &b.faults
	f.mu.Lock()
	defer f.mu.Unlock()
	f.groups = nil
	b.refreshFaultFlag()
}

// SetFaultSeed seeds per-message fault sampling so a fault run's
// drop/duplicate decisions are reproducible given the same publish
// order: each publish consults the rules for its subscribers in
// client-id order.
func (b *Broker) SetFaultSeed(seed int64) {
	f := &b.faults
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rng = rng.New(uint64(seed), 0)
}

// faultAction is the routing decision for one delivery.
type faultAction struct {
	drop  bool
	dup   bool
	delay time.Duration
}

// decideFault evaluates the installed rules and partitions for a
// delivery from `from` to client `to` on `topic`.
func (b *Broker) decideFault(from, to, topic string) faultAction {
	f := &b.faults
	f.mu.Lock()
	defer f.mu.Unlock()
	var act faultAction
	if f.groups != nil && from != "" {
		gf, okf := f.groups[from]
		gt, okt := f.groups[to]
		if okf && okt && gf != gt {
			act.drop = true
			return act
		}
	}
	for i := range f.rules {
		r := &f.rules[i]
		if r.Client != "" && r.Client != to {
			continue
		}
		if r.From != "" && r.From != from {
			continue
		}
		if r.Topic != "" && !MatchTopic(r.Topic, topic) {
			continue
		}
		if r.DropRate > 0 && f.rng.Float64() < r.DropRate {
			act.drop = true
			return act
		}
		if r.DupRate > 0 && f.rng.Float64() < r.DupRate {
			act.dup = true
		}
		if r.Delay > act.delay {
			act.delay = r.Delay
		}
	}
	return act
}
