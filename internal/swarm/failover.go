package swarm

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/broker"
)

// This file is the pool's self-healing plane. A shard dies only in
// KillShard, which arms the failover as one pool-clock timer; a healthy
// pool arms none, so an unpaced clock is moved only by the load. The
// failover runs under the exclusive placement lock: the dead shard's
// keys re-anchor to ring survivors, its in-process subscriptions
// migrate (without retained replay — the clients never unsubscribed),
// retained state the survivors miss is re-replicated, and every message
// the journal parked against the outage is redelivered so QoS 1
// accounting stays exact. Chaos faults (shard-kill / shard-partition /
// shard-revive) and `dbox swarm -kill-shard` drive the same paths.

// HealthOptions tunes shard failure detection and the failover
// journal. The zero value means defaults.
type HealthOptions struct {
	// DetectAfter is how long after a shard's death its failover runs;
	// default 50ms. Messages meanwhile park in the journal.
	DetectAfter time.Duration
	// PendingLimit bounds the per-shard journal of messages parked
	// during an outage; overflow is shed (counted, never blocking).
	// Default 16384.
	PendingLimit int
	// Disable turns detection off: KillShard/ReviveShard and the
	// journal still work, but a kill never fails over on its own.
	// Single-broker tests that close the pool abruptly use this.
	Disable bool
}

func (h HealthOptions) withDefaults() HealthOptions {
	if h.DetectAfter <= 0 {
		h.DetectAfter = 50 * time.Millisecond
	}
	if h.PendingLimit <= 0 {
		h.PendingLimit = 16384
	}
	return h
}

// pendKind says how a journaled message re-enters the pool at flush.
type pendKind uint8

const (
	// pendPublish: the message's home shard was dead at publish time,
	// so nobody saw it. Replay through the re-anchored ring gives it
	// the full fan-out exactly once.
	pendPublish pendKind = iota
	// pendForward: a bridge forward to one shard failed after every
	// other shard already delivered. Redeliver only to the clients
	// that were waiting on the target, never re-fan-out.
	pendForward
)

// pendingMsg is one journaled message.
type pendingMsg struct {
	kind    pendKind
	target  int // shard the message was headed to
	from    string
	topic   string
	payload []byte
	qos     byte
	retain  bool
}

// pendJournal parks messages gated by a shard outage, keyed by the
// gating shard, bounded per shard. Overflow sheds the newest message
// and counts it — graceful degradation over unbounded growth or
// blocking a publish path. Lock order: pool.topo before pendJournal.mu.
type pendJournal struct {
	mu      sync.Mutex
	limit   int
	pending map[int][]pendingMsg
	shed    int64
}

func newPendJournal(limit int) *pendJournal {
	return &pendJournal{limit: limit, pending: map[int][]pendingMsg{}}
}

// spill parks one message against gate. Called from the pool publish
// path (home shard dead) and the bridge forward path (target dead or
// link severed).
func (j *pendJournal) spill(gate int, kind pendKind, target int, from, topic string, payload []byte, qos byte, retain bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	q := j.pending[gate]
	if len(q) >= j.limit {
		j.shed++
		return
	}
	// Copy the payload: broker delivery paths may reuse buffers, and a
	// journaled message outlives its publish call by design.
	buf := make([]byte, len(payload))
	copy(buf, payload)
	j.pending[gate] = append(q, pendingMsg{
		kind: kind, target: target, from: from, topic: topic,
		payload: buf, qos: qos, retain: retain,
	})
}

// drain removes and returns gate's queue in FIFO order.
func (j *pendJournal) drain(gate int) []pendingMsg {
	j.mu.Lock()
	defer j.mu.Unlock()
	q := j.pending[gate]
	delete(j.pending, gate)
	return q
}

func (j *pendJournal) shedCount() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.shed
}

// failover takes over a dead shard: re-anchor its keys and
// subscriptions onto ring survivors, re-replicate retained state the
// survivors miss, and flush the journal so every parked QoS 1 message
// is delivered exactly once per subscriber. Holding topo exclusively
// for the whole sequence is what makes the accounting exact: no pool
// publish can land in a half-migrated topology. killed is the broker
// KillShard closed at died: a slot revived since holds another one.
// The "down" shard event counts re-anchors and journal replays that
// failed under "errors".
func (p *Pool) failover(dead int, killed *broker.Broker, died time.Time) {
	p.topo.lock()
	if p.closed || p.shards[dead] != killed || p.ring.isDown(dead) || p.ring.alive <= 1 {
		// Pool closed, shard revived or already handled, or no survivor
		// exists to take over.
		p.topo.unlock()
		return
	}
	p.failing.Add(1)
	defer p.failing.Done()
	p.detect[dead] = nil
	p.ring.markDown(dead)
	p.bridge.dropShard(dead)
	// Migrate from the pool registry, which holds the delivery
	// functions. Wire-client subscriptions die with their TCP sessions;
	// their owners reconnect to a live shard and resubscribe themselves
	// (broker client reconnect path), so nothing takes them over here.
	moved := p.migrated[dead]
	if moved == nil {
		moved = map[string]bool{}
		p.migrated[dead] = moved
	}
	failed := 0
	for id, pc := range p.reg {
		if pc.owner != dead {
			continue
		}
		newOwner := p.ring.shardFor(id)
		for filter, sub := range pc.subs {
			// Resubscribe, not Subscribe: the client never unsubscribed,
			// so replaying retained messages here would double-deliver.
			if p.shards[newOwner].ResubscribeInProcess(id, filter, sub.qos, sub.fn) != nil {
				failed++
			}
		}
		pc.owner = newOwner
		moved[id] = true
	}
	// Re-replicate retained messages the survivors miss. The bridge
	// replicates retained publishes to every shard at route time, so
	// this is normally empty — it covers retained state that raced the
	// shard's death.
	if dr := p.shards[dead].ExportRetained(); len(dr) > 0 {
		for s, sh := range p.shards {
			if s == dead || !sh.Alive() || p.ring.isDown(s) {
				continue
			}
			have := map[string]bool{}
			for _, m := range sh.ExportRetained() {
				have[m.Topic] = true
			}
			var missing []broker.Message
			for _, m := range dr {
				if !have[m.Topic] {
					missing = append(missing, m)
				}
			}
			sh.ImportRetained(missing)
		}
	}
	redelivered, unflushed := p.flushGateLocked(dead, -1)
	p.topo.unlock()

	elapsed := p.clk.Since(died).Seconds()
	p.statMu.Lock()
	p.failovers++
	p.recoveries = append(p.recoveries, elapsed)
	p.statMu.Unlock()
	p.failoverTotal.Inc()
	p.failoverSec.Observe(elapsed)
	p.shardUp.With(strconv.Itoa(dead)).Set(0)
	p.opts.Bus.Publish("shard", map[string]any{
		"shard":       dead,
		"state":       "down",
		"recovery_ms": elapsed * 1e3,
		"redelivered": redelivered,
		"errors":      failed + unflushed,
	})
}

// flushGateLocked drains and replays every message parked against
// gate. Caller holds topo exclusively. skipRetainedTo suppresses
// retained forwards into that shard (it was just seeded from a donor
// replica, which is at least as fresh); pass -1 to keep them.
// Returns the number of messages redelivered directly to migrated
// clients, and the number of publishes whose replay failed.
func (p *Pool) flushGateLocked(gate, skipRetainedTo int) (redelivered, failed int) {
	for _, m := range p.pend.drain(gate) {
		switch m.kind {
		case pendPublish:
			// Nobody saw this message: replay through the current ring
			// for the full fan-out.
			if p.publishLocked(0, hashKey(m.topic), m.from, m.topic, m.payload, m.qos, m.retain) != nil {
				failed++
			}
		case pendForward:
			if m.retain && m.target == skipRetainedTo {
				continue
			}
			if moved := p.migrated[m.target]; len(moved) > 0 {
				// The target's clients migrated: hand the message to
				// exactly those clients, wherever they live now.
				redelivered += p.redeliverLocked(moved, m)
				continue
			}
			if p.shards[m.target].Alive() && !p.ring.isDown(m.target) {
				if err := p.shards[m.target].PublishQoS(bridgePrefix+m.from, m.topic, m.payload, m.qos, m.retain); err == nil {
					continue
				}
			}
			// Target still out (or died again mid-flush): park it back
			// against the target itself.
			p.pend.spill(m.target, pendForward, m.target, m.from, m.topic, m.payload, m.qos, m.retain)
		}
	}
	p.statMu.Lock()
	p.redelivers += int64(redelivered)
	p.statMu.Unlock()
	return redelivered, failed
}

// redeliverLocked delivers one parked forward directly to the
// migrated clients that were waiting on its dead target, applying
// MQTT's per-client overlapping-filter rule: one delivery per client
// at the highest matching subscription QoS (capped by the publish
// QoS). Caller holds topo exclusively.
func (p *Pool) redeliverLocked(moved map[string]bool, m pendingMsg) int {
	n := 0
	for id := range moved {
		pc := p.reg[id]
		if pc == nil {
			continue // client unsubscribed entirely since migration
		}
		var fn func(broker.Message)
		var best byte
		for filter, sub := range pc.subs {
			if broker.MatchTopic(filter, m.topic) && (fn == nil || sub.qos > best) {
				fn, best = sub.fn, sub.qos
			}
		}
		if fn == nil {
			continue
		}
		qos := m.qos
		if best < qos {
			qos = best
		}
		fn(broker.Message{Topic: m.topic, Payload: m.payload, QoS: qos, Retained: m.retain})
		n++
	}
	return n
}

// KillShard closes shard i's broker without telling the pool — the
// chaos shard-kill fault — and arms one pool-clock timer that runs the
// failover DetectAfter later, ahead of any revive the caller arms next.
// Killing a dead shard is a no-op.
func (p *Pool) KillShard(i int) error {
	p.topo.lock()
	defer p.topo.unlock()
	if i < 0 || i >= len(p.shards) {
		return fmt.Errorf("swarm: kill-shard %d: pool has %d shards", i, len(p.shards))
	}
	sh := p.shards[i]
	if !sh.Alive() {
		return nil
	}
	sh.Close()
	if !p.opts.Health.Disable && !p.closed {
		died := p.clk.Now()
		p.detect[i] = p.clk.AfterFunc(p.opts.Health.DetectAfter, func() { p.failover(i, sh, died) })
	}
	return nil
}

// ReviveShard replaces a dead shard with a fresh broker, seeds its
// retained replica from a survivor, marks it alive on the ring (its
// original keys re-anchor back — shardFor is a pure function of the
// alive set), and flushes any messages still parked against it.
// Migrated in-process clients stay where failover put them: placement
// is sticky, and the bridge makes placement a performance detail, not
// a correctness one.
func (p *Pool) ReviveShard(i int) error {
	p.topo.lock()
	if i < 0 || i >= len(p.shards) {
		p.topo.unlock()
		return fmt.Errorf("swarm: revive-shard %d: pool has %d shards", i, len(p.shards))
	}
	if t := p.detect[i]; t != nil {
		// Revived before detection: the outage never fails over.
		t.Stop()
		p.detect[i] = nil
	}
	swapped := false
	if !p.shards[i].Alive() {
		nb := p.newShardBroker(i)
		for s, sh := range p.shards {
			if s != i && sh.Alive() && !p.ring.isDown(s) {
				nb.ImportRetained(sh.ExportRetained())
				break
			}
		}
		p.shards[i] = nb
		p.bridge.setShard(i, nb)
		swapped = true
		// Clients still recorded on i never migrated (no survivor was
		// available, e.g. a single-shard pool): re-anchor them onto the
		// fresh broker so their subscriptions live again.
		for id, pc := range p.reg {
			if pc.owner != i {
				continue
			}
			for filter, sub := range pc.subs {
				nb.ResubscribeInProcess(id, filter, sub.qos, sub.fn)
			}
		}
	}
	if p.ring.isDown(i) {
		p.ring.markUp(i)
	}
	skipRetained := -1
	if swapped {
		skipRetained = i // retained already seeded from the donor replica
	}
	p.flushGateLocked(i, skipRetained)
	p.topo.unlock()
	p.shardUp.With(strconv.Itoa(i)).Set(1)
	p.opts.Bus.Publish("shard", map[string]any{"shard": i, "state": "up"})
	return nil
}

// PartitionShard severs shard i's bridge links in both directions —
// the chaos shard-partition fault. The shard stays alive and serves
// its own clients; cross-shard traffic parks in the journal until
// HealShard.
func (p *Pool) PartitionShard(i int) error {
	p.topo.lock()
	defer p.topo.unlock()
	if i < 0 || i >= len(p.shards) {
		return fmt.Errorf("swarm: partition-shard %d: pool has %d shards", i, len(p.shards))
	}
	p.bridge.setSevered(i, true)
	return nil
}

// HealShard restores shard i's bridge links and flushes everything
// the partition parked, in publish order. Concurrent retained writes
// during the partition resolve last-flush-wins.
func (p *Pool) HealShard(i int) error {
	p.topo.lock()
	defer p.topo.unlock()
	if i < 0 || i >= len(p.shards) {
		return fmt.Errorf("swarm: heal-shard %d: pool has %d shards", i, len(p.shards))
	}
	p.bridge.setSevered(i, false)
	p.flushGateLocked(i, -1)
	return nil
}

// FailoverStats is the self-healing slice of a pool's counters.
type FailoverStats struct {
	// Failovers is the number of completed shard takeovers.
	Failovers int64 `json:"failovers"`
	// Redelivered counts journaled messages delivered directly to
	// migrated clients after a takeover.
	Redelivered int64 `json:"redelivered"`
	// Shed counts messages dropped from the bounded journal.
	Shed int64 `json:"shed"`
	// RecoverySec holds one detection→completion duration per
	// failover, in seconds.
	RecoverySec []float64 `json:"recovery_sec,omitempty"`
}

// FailoverStats snapshots the pool's self-healing counters.
func (p *Pool) FailoverStats() FailoverStats {
	p.statMu.Lock()
	defer p.statMu.Unlock()
	out := FailoverStats{
		Failovers:   p.failovers,
		Redelivered: p.redelivers,
		Shed:        p.pend.shedCount(),
	}
	out.RecoverySec = append(out.RecoverySec, p.recoveries...)
	return out
}
