package swarm

import (
	"fmt"
	"sync"
	"unsafe"

	"repro/internal/broker"
	"repro/internal/clock"
	"repro/internal/obs"
)

// SingleBrokerDeviceGuidance is the device count past which one broker
// shard is considered saturated and a scene should declare
// `swarm: {shards: N}` (vet rule V015 enforces this). It is guidance,
// not a hard limit: the number comes from the fan-out benchmarks —
// past ~1000 publishing devices a single shard's route path becomes
// the bottleneck before the load generator does.
const SingleBrokerDeviceGuidance = 1000

// PoolOptions configures a shard pool.
type PoolOptions struct {
	// Shards is the number of broker shards; 0 means 1.
	Shards int
	// Obs, when set, receives the pool's aggregated metric families
	// (digibox_swarm_*). Individual shards are registered without Obs —
	// their counters are aggregated at gather time instead, so one
	// registry serves any shard count.
	Obs *obs.Registry
	// Tracer is shared by every shard, so publish→deliver spans and
	// e2e latency histograms cover the pool exactly as they would a
	// single broker.
	Tracer *obs.Tracer
	// Clock times failure detection and failover recovery. Nil means
	// the wall clock; deterministic harnesses inject a clock.Virtual.
	Clock clock.Clock
	// Health tunes failure detection and the failover journal; zero
	// fields are defaulted (see HealthOptions).
	Health HealthOptions
	// Bus, when set, receives a "shard" event on every health
	// transition (down at failover completion, up at revive) so live
	// consumers can track the ring without polling.
	Bus *obs.Bus
}

// poolSub is one in-process subscription the pool placed, kept so a
// shard failover can re-anchor it onto a survivor.
type poolSub struct {
	qos byte
	fn  func(broker.Message)
}

// poolClient is the pool's record of one in-process client: its
// current anchor shard and every filter it holds. This registry — not
// the shards' tries — is the authoritative takeover state: only the
// pool knows the delivery functions to re-anchor.
type poolClient struct {
	owner int
	subs  map[string]poolSub
}

// Pool is a sharded MQTT message plane: publishes and subscriptions
// are placed on shards by consistent topic/client hashing, and the
// inter-broker bridge keeps delivery semantics identical to a single
// broker (see bridge). The pool self-heals: when a shard dies it
// re-anchors the shard's keys, subscriptions, and journaled messages
// onto the survivors (see failover.go). The zero pool is not usable;
// create with NewPool and release with Close.
type Pool struct {
	opts PoolOptions
	clk  clock.Clock

	// topo is the placement epoch lock: a publish holds its lane's
	// stripe shared for its whole operation (placement decision through
	// delivery);
	// Subscribe, Unsubscribe, Close and failover/recovery/partition hold
	// every stripe. That exclusion is what makes a failover atomic with
	// respect to in-flight pool publishes — the property the
	// exactly-once redelivery accounting rests on. Wire-client
	// publishes enter a shard directly and do not hold topo; their
	// cross-shard deliveries during the failover instant are
	// at-least-once (journal stragglers flush on revive/heal).
	topo     stripedRWMutex
	shards   []*broker.Broker
	ring     *ring
	bridge   *bridge
	reg      map[string]*poolClient
	migrated map[int]map[string]bool // shard -> clients moved off it at failover

	pend *pendJournal

	// detect holds each killed shard's pending failure detection (see
	// KillShard); closed is set once Close disarmed them for good. Both
	// are guarded by topo. failing counts failovers past their checks,
	// which Close waits out.
	detect  []clock.Timer
	closed  bool
	failing sync.WaitGroup

	statMu     sync.Mutex
	failovers  int64
	redelivers int64
	recoveries []float64 // failover detection→completion, seconds

	failoverTotal *obs.Counter
	failoverSec   *obs.Histogram
	shardUp       *obs.GaugeVec
}

// NewPool creates the shard brokers and wires the bridge between them.
func NewPool(opts PoolOptions) *Pool {
	if opts.Shards <= 0 {
		opts.Shards = 1
	}
	opts.Health = opts.Health.withDefaults()
	p := &Pool{
		opts:     opts,
		clk:      clock.Or(opts.Clock),
		topo:     newStripedRWMutex(),
		ring:     newRing(opts.Shards),
		bridge:   newBridge(opts.Shards),
		detect:   make([]clock.Timer, opts.Shards),
		reg:      map[string]*poolClient{},
		migrated: map[int]map[string]bool{},
	}
	p.pend = newPendJournal(opts.Health.PendingLimit)
	// The bridge keeps its own copy of the shard slice in its route
	// view: pool-side reads are serialised by topo, while a bridge
	// forward reads whichever view it loaded, and a ReviveShard swap
	// publishes a new view rather than writing a slice element a
	// forward may be reading.
	for i := 0; i < opts.Shards; i++ {
		p.shards = append(p.shards, p.newShardBroker(i))
		p.bridge.setShard(i, p.shards[i])
	}
	p.bridge.spill = p.pend.spill
	if opts.Obs != nil {
		p.bindMetrics(opts.Obs)
	}
	return p
}

// newShardBroker builds the broker for shard slot i with the pool's
// bridge hooks — used at pool construction and again when ReviveShard
// replaces a killed shard.
func (p *Pool) newShardBroker(i int) *broker.Broker {
	return broker.NewBroker(&broker.Options{
		Tracer:        p.opts.Tracer,
		Clock:         p.opts.Clock,
		SubscribeHook: p.bridge.subHook(i),
		LaneRouteHook: p.bridge.routeHook(i),
	})
}

// bindMetrics registers pool-level families that aggregate over every
// shard at gather time. CounterFunc re-registration replaces the
// gather func, so a fresh pool re-binding to a long-lived registry
// (one swarm run after another) works.
func (p *Pool) bindMetrics(r *obs.Registry) {
	sum := func(pick func(broker.Stats) int64) func() float64 {
		return func() float64 {
			var total int64
			for _, sh := range p.snapshotShards() {
				total += pick(sh.Stats())
			}
			return float64(total)
		}
	}
	r.GaugeFunc("digibox_swarm_shards", "broker shards in the swarm pool",
		func() float64 { return float64(p.NumShards()) })
	r.CounterFunc("digibox_swarm_publishes_total",
		"publishes received across all shards (bridge forwards included)",
		sum(func(s broker.Stats) int64 { return s.PublishesIn }))
	r.CounterFunc("digibox_swarm_deliveries_total",
		"messages delivered to subscribers across all shards",
		sum(func(s broker.Stats) int64 { return s.MessagesOut }))
	r.CounterFunc("digibox_swarm_dropped_total",
		"QoS 0 messages shed on slow sessions across all shards",
		sum(func(s broker.Stats) int64 { return s.Dropped }))
	r.CounterFunc("digibox_swarm_bridge_forwards_total",
		"publishes forwarded shard-to-shard by the bridge",
		func() float64 { return float64(p.bridge.forwardCount()) })
	p.failoverTotal = r.Counter("digibox_swarm_failovers_total",
		"shard failovers completed (detection through redelivery)")
	p.failoverSec = r.Histogram("digibox_swarm_failover_seconds",
		"shard outage detection → failover completion", nil)
	r.CounterFunc("digibox_swarm_shed_total",
		"messages shed from the bounded failover journal on overflow",
		func() float64 { return float64(p.pend.shedCount()) })
	p.shardUp = r.GaugeVec("digibox_swarm_shard_up",
		"per-shard health (1 up, 0 down)", "shard")
	for i := 0; i < p.opts.Shards; i++ {
		p.shardUp.With(fmt.Sprintf("%d", i)).Set(1)
	}
}

// NumShards returns the shard count.
func (p *Pool) NumShards() int {
	defer p.topo.rlock(0).RUnlock()
	return len(p.shards)
}

// snapshotShards copies the shard slice under the placement lock so
// gather-time metric funcs never race a ReviveShard swap.
func (p *Pool) snapshotShards() []*broker.Broker {
	defer p.topo.rlock(0).RUnlock()
	out := make([]*broker.Broker, len(p.shards))
	copy(out, p.shards)
	return out
}

// DownShards lists the shards currently marked down, ascending.
func (p *Pool) DownShards() []int {
	defer p.topo.rlock(0).RUnlock()
	var out []int
	for i := range p.shards {
		if p.ring.isDown(i) {
			out = append(out, i)
		}
	}
	return out
}

// Publish routes a message into the pool via its topic's home shard.
// The bridge forwards it to any other shard with a matching
// subscription, so callers never need to know where subscribers live.
// A publish that hits a dead-but-undetected shard is journaled and
// redelivered after failover instead of failing — callers see nil,
// and the exact-accounting gates see the delivery arrive late.
// It publishes on lane 0.
func (p *Pool) Publish(from, topic string, payload []byte, qos byte, retain bool) error {
	return p.publishLane(0, from, topic, payload, qos, retain)
}

// publishLane is Publish on a publish lane (broker.PublishLane): a
// session's generator worker passes its own, so the placement stripe,
// the shards' counts and the bridge forward it writes are its lane's.
func (p *Pool) publishLane(lane int, from, topic string, payload []byte, qos byte, retain bool) error {
	defer p.topo.rlock(lane).RUnlock()
	return p.publishLocked(lane, hashKey(topic), from, topic, payload, qos, retain)
}

// publishLocked is publishLane under a held topo lock (a stripe
// shared, or every stripe) — the failover flush re-publishes journaled
// messages through it on lane 0 while holding topo exclusively. h is
// hashKey(topic).
func (p *Pool) publishLocked(lane int, h uint64, from, topic string, payload []byte, qos byte, retain bool) error {
	home := p.ring.shardAt(h)
	err := p.shards[home].PublishLane(lane, from, topic, payload, qos, retain)
	if err == broker.ErrClosed {
		// The home shard died and its failover has not run yet:
		// park the message in the journal; the failover flush replays
		// it through the re-anchored ring, where it fans out to every
		// subscriber exactly once (nobody saw it on the dead shard).
		p.pend.spill(home, pendPublish, home, from, topic, payload, qos, retain)
		return nil
	}
	return err
}

// Subscribe registers an in-process subscription, anchored on the
// shard the client id hashes to. Anchoring by client — not by filter —
// keeps every subscription of one client on one broker, which is what
// preserves MQTT's per-client overlapping-filter dedup across the
// pool. fn must not publish back into the pool synchronously: it runs
// on publisher (and failover-redelivery) goroutines that already hold
// the pool's placement lock.
func (p *Pool) Subscribe(clientID, filter string, qos byte, fn func(broker.Message)) error {
	// Exclusive, not shared: Subscribe mutates the client registry, and
	// it is a setup-path call — publish throughput never goes through it.
	p.topo.lock()
	defer p.topo.unlock()
	owner := p.ring.shardFor(clientID)
	if pc := p.reg[clientID]; pc != nil {
		// Sticky anchoring: a client failover moved to a survivor stays
		// there even after its original shard revives — splitting one
		// client across shards would break per-client overlapping-filter
		// dedup. The ring only places a client's first subscription.
		owner = pc.owner
	}
	if err := p.shards[owner].SubscribeInProcess(clientID, filter, qos, fn); err != nil {
		return err
	}
	pc := p.reg[clientID]
	if pc == nil {
		pc = &poolClient{owner: owner, subs: map[string]poolSub{}}
		p.reg[clientID] = pc
	}
	pc.subs[filter] = poolSub{qos: qos, fn: fn}
	return nil
}

// Unsubscribe removes a subscription registered with Subscribe.
func (p *Pool) Unsubscribe(clientID, filter string) bool {
	p.topo.lock()
	defer p.topo.unlock()
	owner := p.ring.shardFor(clientID)
	if pc := p.reg[clientID]; pc != nil {
		owner = pc.owner
		delete(pc.subs, filter)
		if len(pc.subs) == 0 {
			delete(p.reg, clientID)
		}
	}
	return p.shards[owner].UnsubscribeInProcess(clientID, filter)
}

// Stats aggregates shard counters. BridgeForwards is the number of
// shard-to-shard forwarded publishes — the pool's scaling overhead.
// Failovers/Shed/Redelivered are the self-healing counters: shard
// takeovers completed, messages dropped from the bounded journal, and
// journaled messages redelivered after takeover.
type Stats struct {
	Shards         []broker.Stats `json:"shards"`
	PublishesIn    int64          `json:"publishes_in"`
	MessagesOut    int64          `json:"messages_out"`
	Dropped        int64          `json:"dropped"`
	BridgeForwards int64          `json:"bridge_forwards"`
	Failovers      int64          `json:"failovers"`
	Shed           int64          `json:"shed"`
	Redelivered    int64          `json:"redelivered"`
	ShardsDown     []int          `json:"shards_down,omitempty"`
}

// Stats snapshots every shard plus the aggregate.
func (p *Pool) Stats() Stats {
	out := Stats{
		BridgeForwards: p.bridge.forwardCount(),
		Shed:           p.pend.shedCount(),
		ShardsDown:     p.DownShards(),
	}
	for _, sh := range p.snapshotShards() {
		s := sh.Stats()
		out.Shards = append(out.Shards, s)
		out.PublishesIn += s.PublishesIn
		out.MessagesOut += s.MessagesOut
		out.Dropped += s.Dropped
	}
	p.statMu.Lock()
	out.Failovers = p.failovers
	out.Redelivered = p.redelivers
	p.statMu.Unlock()
	return out
}

// Close disarms pending failure detections, waits for a failover
// already under way, and shuts every shard down.
func (p *Pool) Close() {
	p.topo.lock()
	p.closed = true
	for _, t := range p.detect {
		if t != nil {
			t.Stop()
		}
	}
	p.topo.unlock()
	p.failing.Wait()
	for _, sh := range p.snapshotShards() {
		sh.Close()
	}
}

// RequiredShards returns the shard count guidance for a device count:
// ceil(devices / SingleBrokerDeviceGuidance), minimum 1. vet rule V015
// and `dbox swarm` both use it so the hint and the tool agree.
func RequiredShards(devices int) int {
	if devices <= SingleBrokerDeviceGuidance {
		return 1
	}
	return (devices + SingleBrokerDeviceGuidance - 1) / SingleBrokerDeviceGuidance
}

// String implements fmt.Stringer for quick logging.
func (s Stats) String() string {
	return fmt.Sprintf("shards=%d in=%d out=%d dropped=%d forwards=%d failovers=%d shed=%d",
		len(s.Shards), s.PublishesIn, s.MessagesOut, s.Dropped, s.BridgeForwards, s.Failovers, s.Shed)
}

// stripedRWMutex is a reader-writer lock split into one stripe per
// publish lane. A reader locks its lane's stripe, so publishes on two
// lanes write no common line; a writer locks every stripe, in index
// order, and so excludes every reader.
type stripedRWMutex struct {
	stripes []rwStripe
}

// rwStripe is one stripe of a stripedRWMutex. A slice of them is
// allocated in a 64-byte multiple, which Go's size classes align to 64
// bytes, so each stripe fills a cache line of its own.
type rwStripe struct {
	sync.RWMutex
	_ [64 - unsafe.Sizeof(sync.RWMutex{})]byte
}

func newStripedRWMutex() stripedRWMutex {
	return stripedRWMutex{make([]rwStripe, obs.Lanes)}
}

// rlock read-locks lane's stripe and returns it to unlock.
func (m *stripedRWMutex) rlock(lane int) *sync.RWMutex {
	s := &m.stripes[lane].RWMutex
	s.RLock()
	return s
}

func (m *stripedRWMutex) lock() {
	for i := range m.stripes {
		m.stripes[i].Lock()
	}
}

func (m *stripedRWMutex) unlock() {
	for i := range m.stripes {
		m.stripes[i].Unlock()
	}
}
