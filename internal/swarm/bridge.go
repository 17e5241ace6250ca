package swarm

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/broker"
)

// bridgePrefix marks a publish as already bridge-forwarded. A shard's
// RouteHook sees the prefixed publisher identity and stops — forwarding
// is single-hop by construction, so no loop detection is needed.
const bridgePrefix = "swarm!"

// bridge keeps cross-shard delivery semantics identical to a single
// broker. It maintains, per filter, the set of shards holding a live
// subscription (fed by each shard's SubscribeHook) and forwards every
// publish entering one shard to the other shards that need it:
//
//   - shards with a matching subscription — exact-map lookup for
//     concrete filters, a MatchTopic scan over the (small) wildcard
//     set otherwise;
//   - every shard, when the publish is retained — each shard's
//     retained store is a full replica, so wire or in-process
//     subscribers on any shard observe single-broker retained
//     behaviour.
//
// Per-client delivery stays single-broker-equivalent because all of a
// client's subscriptions live on one shard (the pool anchors by client
// id; a wire client is connected to exactly one shard), so exactly one
// broker applies MQTT's per-client overlapping-filter dedup for it.
//
// Failover awareness: a forward whose target shard is dead (closed) or
// whose link is severed by a shard-partition fault is not lost — it is
// spilled into the pool's bounded journal, keyed by the shard whose
// outage gated it, and replayed when that shard fails over or heals.
type bridge struct {
	shards []*broker.Broker

	// spill journals a forward the bridge could not deliver:
	// gate is the shard whose outage caused it (the journal key),
	// target the shard the forward was headed to.
	spill func(gate int, kind pendKind, target int, from, topic string, payload []byte, qos byte, retain bool)

	mu       sync.RWMutex
	concrete map[string][]int32 // exact filter -> per-shard refcount
	wild     map[string][]int32 // wildcard filter -> per-shard refcount
	// wildList is wild as a slice sharing its refcounts, rebuilt only
	// when a wildcard filter comes or goes: the per-publish scan.
	wildList []wildFilter
	severed  []bool // shard-partition: links cut both ways

	// lastFrom interns the forwarded identity bridgePrefix+from. A
	// swarm run publishes under one identity, so one entry suffices.
	lastFrom atomic.Pointer[forwardedFrom]

	forwards int64 // publishes forwarded shard-to-shard
}

type wildFilter struct {
	filter string
	shards []int32
}

type forwardedFrom struct{ from, as string }

// forward is one sibling shard a publish is headed to; gate is the
// journal key when it is blocked, -1 when it is deliverable.
type forward struct {
	dest         *broker.Broker
	target, gate int
}

func newBridge(shards int) *bridge {
	return &bridge{
		concrete: map[string][]int32{},
		wild:     map[string][]int32{},
		severed:  make([]bool, shards),
	}
}

// subHook returns the SubscribeHook for shard i.
func (br *bridge) subHook(i int) func(clientID, filter string, add bool) {
	return func(_, filter string, add bool) {
		idx := br.concrete
		isWild := strings.ContainsAny(filter, "+#")
		if isWild {
			idx = br.wild
		}
		br.mu.Lock()
		defer br.mu.Unlock()
		refs := idx[filter]
		if add {
			if refs == nil {
				refs = make([]int32, len(br.severed))
				idx[filter] = refs
				if isWild {
					br.rebuildWild()
				}
			}
			refs[i]++
			return
		}
		if refs == nil || refs[i] == 0 {
			return
		}
		if refs[i]--; unused(refs) {
			delete(idx, filter)
			if isWild {
				br.rebuildWild()
			}
		}
	}
}

// rebuildWild regenerates wildList from wild. Caller holds mu.
func (br *bridge) rebuildWild() {
	br.wildList = br.wildList[:0]
	for filter, refs := range br.wild {
		br.wildList = append(br.wildList, wildFilter{filter, refs})
	}
}

// routeHook returns the RouteHook for shard i: decide which sibling
// shards need this publish and forward it with the bridge-prefixed
// publisher identity, in ascending shard order. Targets that are dead
// or behind a severed link are spilled to the journal instead of
// silently dropped. In pools of up to 8 shards the whole decision
// lives on the stack, so a forward allocates nothing.
func (br *bridge) routeHook(i int) func(from, topic string, payload []byte, qos byte, retain bool) {
	return func(from, topic string, payload []byte, qos byte, retain bool) {
		if strings.HasPrefix(from, bridgePrefix) {
			return // already forwarded once; single hop only
		}
		var wantBuf [8]bool
		var fwdBuf [8]forward
		want, fwds := wantBuf[:0], fwdBuf[:0]
		br.mu.RLock()
		want = append(want, make([]bool, len(br.shards))...)
		if retain {
			// Replicate retained state everywhere.
			for t := range want {
				want[t] = true
			}
		} else {
			for t, n := range br.concrete[topic] {
				want[t] = n > 0
			}
			for _, w := range br.wildList {
				if !broker.MatchTopic(w.filter, topic) {
					continue
				}
				for t, n := range w.shards {
					want[t] = want[t] || n > 0
				}
			}
		}
		// Capture destination brokers and the blocked decision while the
		// lock is held: ReviveShard swaps slice elements under the write
		// lock, so element reads outside it would race the swap.
		for t, dest := range br.shards {
			if t == i || !want[t] {
				continue
			}
			gate := -1
			switch {
			case !dest.Alive() || br.severed[t]:
				gate = t // target-side outage gates it
			case br.severed[i]:
				gate = i // our own link is cut
			}
			fwds = append(fwds, forward{dest, t, gate})
		}
		br.mu.RUnlock()
		for _, f := range fwds {
			if f.gate >= 0 {
				br.spill(f.gate, pendForward, f.target, from, topic, payload, qos, retain)
				continue
			}
			atomic.AddInt64(&br.forwards, 1)
			// Validation already passed on the receiving shard; the only
			// surviving error is ErrClosed from a shard dying between the
			// liveness check and the forward — journal it like any other
			// dead-target forward.
			if f.dest.PublishQoS(br.forwardedAs(from), topic, payload, qos, retain) != nil {
				br.spill(f.target, pendForward, f.target, from, topic, payload, qos, retain)
			}
		}
	}
}

// forwardedAs returns the bridge-prefixed identity for from.
func (br *bridge) forwardedAs(from string) string {
	if c := br.lastFrom.Load(); c != nil && c.from == from {
		return c.as
	}
	c := &forwardedFrom{from, bridgePrefix + from}
	br.lastFrom.Store(c)
	return c.as
}

// setShard swaps the broker serving shard slot i — ReviveShard's
// replacement of a dead broker. Runs under the bridge write lock so
// in-flight routeHooks never observe a torn slice element.
func (br *bridge) setShard(i int, b *broker.Broker) {
	br.mu.Lock()
	defer br.mu.Unlock()
	br.shards[i] = b
}

// setSevered cuts (or restores) shard i's bridge links in both
// directions — the shard-partition chaos fault.
func (br *bridge) setSevered(i int, cut bool) {
	br.mu.Lock()
	defer br.mu.Unlock()
	br.severed[i] = cut
}

// dropShard removes every index entry anchored on shard d — the bridge
// half of failover re-anchoring. The migrated subscriptions re-enter
// the index through the survivors' SubscribeHooks.
func (br *bridge) dropShard(d int) {
	br.mu.Lock()
	defer br.mu.Unlock()
	for _, idx := range []map[string][]int32{br.concrete, br.wild} {
		for filter, refs := range idx {
			refs[d] = 0
			if unused(refs) {
				delete(idx, filter)
			}
		}
	}
	br.rebuildWild()
}

// unused reports whether no shard holds a filter with refcounts refs.
func unused(refs []int32) bool {
	return !slices.ContainsFunc(refs, func(n int32) bool { return n > 0 })
}

func (br *bridge) forwardCount() int64 {
	return atomic.LoadInt64(&br.forwards)
}
