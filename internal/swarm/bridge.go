package swarm

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/broker"
	"repro/internal/obs"
)

// bridgePrefix marks a publish as already bridge-forwarded. A shard's
// LaneRouteHook sees the prefixed publisher identity and stops —
// forwarding is single-hop by construction, so no loop detection is
// needed.
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
//
// A publish takes no lock here. It reads the route view (shards,
// severed links, wildcard list) with one atomic load and the concrete
// index with one sync.Map lookup; refcounts are atomic. Writers
// serialise on mu and publish each change before they unlock, so a
// publish that starts after a write returns sees it.
type bridge struct {
	// spill journals a forward the bridge could not deliver:
	// gate is the shard whose outage caused it (the journal key),
	// target the shard the forward was headed to.
	spill func(gate int, kind pendKind, target int, from, topic string, payload []byte, qos byte, retain bool)

	view atomic.Pointer[routeView]
	// concrete maps an exact filter to its refs. A filter's refs live
	// as long as some shard holds it, so a SUBSCRIBE to a held filter
	// only bumps a counter.
	concrete sync.Map

	mu   sync.Mutex      // serialises writers
	wild map[string]refs // wildcard filter -> refs, shared with the view

	// lastFrom interns the forwarded identity bridgePrefix+from. A
	// swarm run publishes under one identity, so one entry suffices.
	lastFrom atomic.Pointer[forwardedFrom]

	forwards []paddedCount // publishes forwarded shard-to-shard, per publish lane
}

// refs counts, per shard, the live subscriptions to one filter.
type refs []atomic.Int32

// routeView is what a publish reads. It is never modified once
// published: a writer stores a changed copy.
type routeView struct {
	shards  []*broker.Broker
	severed []bool // shard-partition: links cut both ways
	// wild is the wildcard index as a slice, rebuilt only when a
	// wildcard filter comes or goes: the per-publish scan.
	wild []wildFilter
}

type wildFilter struct {
	filter string
	shards refs
}

type forwardedFrom struct{ from, as string }

// forward is one sibling shard a publish is headed to; gate is the
// journal key when it is blocked, -1 when it is deliverable.
type forward struct {
	dest         *broker.Broker
	target, gate int
}

func newBridge(shards int) *bridge {
	br := &bridge{wild: map[string]refs{}, forwards: make([]paddedCount, obs.Lanes)}
	br.view.Store(&routeView{
		shards:  make([]*broker.Broker, shards),
		severed: make([]bool, shards),
	})
	return br
}

// update publishes a changed copy of the route view. Caller holds mu.
func (br *bridge) update(change func(v *routeView)) {
	v := *br.view.Load()
	change(&v)
	br.view.Store(&v)
}

// subHook returns the SubscribeHook for shard i.
func (br *bridge) subHook(i int) func(clientID, filter string, add bool) {
	return func(_, filter string, add bool) {
		isWild := strings.ContainsAny(filter, "+#")
		br.mu.Lock()
		defer br.mu.Unlock()
		var r refs
		if isWild {
			r = br.wild[filter]
		} else if v, ok := br.concrete.Load(filter); ok {
			r = v.(refs)
		}
		switch {
		case add && r == nil:
			r = make(refs, len(br.view.Load().shards))
			r[i].Store(1)
			if !isWild {
				br.concrete.Store(filter, r)
				return
			}
			br.wild[filter] = r
			br.rebuildWild()
		case add:
			r[i].Add(1)
		case r == nil || r[i].Load() == 0:
			// Nothing of this shard's to remove.
		case r[i].Add(-1) == 0 && r.unused():
			if !isWild {
				br.concrete.Delete(filter)
				return
			}
			delete(br.wild, filter)
			br.rebuildWild()
		}
	}
}

// rebuildWild publishes a view whose wildcard list is wild. Caller
// holds mu.
func (br *bridge) rebuildWild() {
	list := make([]wildFilter, 0, len(br.wild))
	for filter, r := range br.wild {
		list = append(list, wildFilter{filter, r})
	}
	br.update(func(v *routeView) { v.wild = list })
}

// routeHook returns the LaneRouteHook for shard i: decide which
// sibling shards need this publish and forward it on its own lane with
// the bridge-prefixed publisher identity, in ascending shard order.
// Targets that are dead or behind a severed link are spilled to the
// journal instead of silently dropped. In pools of up to 8 shards the
// whole decision lives on the stack, so a forward allocates nothing.
func (br *bridge) routeHook(i int) func(lane int, from, topic string, payload []byte, qos byte, retain bool) {
	return func(lane int, from, topic string, payload []byte, qos byte, retain bool) {
		if strings.HasPrefix(from, bridgePrefix) {
			return // already forwarded once; single hop only
		}
		var wantBuf [8]bool
		var fwdBuf [8]forward
		v := br.view.Load()
		want := append(wantBuf[:0], make([]bool, len(v.shards))...)
		if retain {
			// Replicate retained state everywhere.
			for t := range want {
				want[t] = true
			}
		} else {
			if c, ok := br.concrete.Load(topic); ok {
				r := c.(refs)
				for t := range want {
					want[t] = r[t].Load() > 0
				}
			}
			for _, w := range v.wild {
				if !broker.MatchTopic(w.filter, topic) {
					continue
				}
				for t := range want {
					want[t] = want[t] || w.shards[t].Load() > 0
				}
			}
		}
		fwds := fwdBuf[:0]
		for t, dest := range v.shards {
			if t == i || !want[t] {
				continue
			}
			gate := -1
			switch {
			case !dest.Alive() || v.severed[t]:
				gate = t // target-side outage gates it
			case v.severed[i]:
				gate = i // our own link is cut
			}
			fwds = append(fwds, forward{dest, t, gate})
		}
		for _, f := range fwds {
			if f.gate >= 0 {
				br.spill(f.gate, pendForward, f.target, from, topic, payload, qos, retain)
				continue
			}
			br.forwards[lane].Add(1)
			// Validation already passed on the receiving shard; the only
			// surviving error is ErrClosed from a shard dying between the
			// liveness check and the forward — journal it like any other
			// dead-target forward.
			if f.dest.PublishLane(lane, br.forwardedAs(from), topic, payload, qos, retain) != nil {
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

// setShard puts b in shard slot i: NewPool's placement and
// ReviveShard's replacement of a dead broker.
func (br *bridge) setShard(i int, b *broker.Broker) {
	br.mu.Lock()
	defer br.mu.Unlock()
	br.update(func(v *routeView) {
		v.shards = slices.Clone(v.shards)
		v.shards[i] = b
	})
}

// setSevered cuts (or restores) shard i's bridge links in both
// directions — the shard-partition chaos fault.
func (br *bridge) setSevered(i int, cut bool) {
	br.mu.Lock()
	defer br.mu.Unlock()
	br.update(func(v *routeView) {
		v.severed = slices.Clone(v.severed)
		v.severed[i] = cut
	})
}

// dropShard removes every index entry anchored on shard d — the bridge
// half of failover re-anchoring. The migrated subscriptions re-enter
// the index through the survivors' SubscribeHooks.
func (br *bridge) dropShard(d int) {
	br.mu.Lock()
	defer br.mu.Unlock()
	br.concrete.Range(func(filter, v any) bool {
		if r := v.(refs); r.drop(d) {
			br.concrete.Delete(filter)
		}
		return true
	})
	for filter, r := range br.wild {
		if r.drop(d) {
			delete(br.wild, filter)
		}
	}
	br.rebuildWild()
}

// drop zeroes shard d's count and reports whether no shard is left.
func (r refs) drop(d int) bool {
	r[d].Store(0)
	return r.unused()
}

// unused reports whether no shard holds the filter.
func (r refs) unused() bool {
	for t := range r {
		if r[t].Load() > 0 {
			return false
		}
	}
	return true
}

func (br *bridge) forwardCount() int64 {
	return sumCounts(br.forwards)
}
