package swarm

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/broker"
)

// delivery is one observed message, normalised for comparison.
type delivery struct {
	Client   string
	Topic    string
	Payload  string
	QoS      byte
	Retained bool
}

// Shard returns shard i.
func (p *Pool) Shard(i int) *broker.Broker {
	defer p.topo.rlock(0).RUnlock()
	return p.shards[i]
}

// ShardFor returns the shard index a key (topic or client id) is
// placed on — among the currently alive shards.
func (p *Pool) ShardFor(key string) int {
	defer p.topo.rlock(0).RUnlock()
	return p.ring.shardFor(key)
}

// recorder collects deliveries across clients, race-safe.
type recorder struct {
	mu  sync.Mutex
	got []delivery
}

func (r *recorder) handler(client string) func(broker.Message) {
	return func(m broker.Message) {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.got = append(r.got, delivery{
			Client:   client,
			Topic:    m.Topic,
			Payload:  string(m.Payload),
			QoS:      m.QoS,
			Retained: m.Retained,
		})
	}
}

func (r *recorder) sorted() []delivery {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]delivery(nil), r.got...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Client != b.Client {
			return a.Client < b.Client
		}
		if a.Topic != b.Topic {
			return a.Topic < b.Topic
		}
		if a.Payload != b.Payload {
			return a.Payload < b.Payload
		}
		if a.QoS != b.QoS {
			return a.QoS < b.QoS
		}
		return !a.Retained && b.Retained
	})
	return out
}

type subCase struct {
	client string
	filter string
	qos    byte
}

type pubCase struct {
	topic   string
	payload string
	qos     byte
	retain  bool
}

// TestBridgeSemanticsTable proves the sharded pool delivers the exact
// message set a single broker would, for a table of wildcard cases:
// every (subscriptions, publishes) pair runs once against one broker
// and once against a 3-shard pool, and the sorted delivery sets must
// be identical — topics, payloads, QoS downgrades, retained flags,
// per-client overlapping-filter dedup, and $-topic wildcard hiding
// all included. Client ids and topics are spread so publishes and
// subscriptions land on different shards by construction.
func TestBridgeSemanticsTable(t *testing.T) {
	cases := []struct {
		name string
		subs []subCase
		pubs []pubCase
		// subsAfter subscribe after the publishes — the retained-
		// delivery path.
		subsAfter []subCase
	}{
		{
			name: "plus wildcard across devices",
			subs: []subCase{
				{"app-a", "swarm/+/status", 1},
				{"app-b", "swarm/+/status", 0},
			},
			pubs: []pubCase{
				{"swarm/dev-1/status", "p1", 1, false},
				{"swarm/dev-2/status", "p2", 1, false},
				{"swarm/dev-3/status", "p3", 0, false},
				{"swarm/dev-1/other", "skip", 0, false},
			},
		},
		{
			name: "hash wildcard depth and parent",
			subs: []subCase{
				{"logger", "swarm/#", 1},
				{"leaf", "swarm/dev-1/status", 1},
			},
			pubs: []pubCase{
				{"swarm", "parent", 1, false}, // "swarm/#" matches "swarm"
				{"swarm/dev-1/status", "deep", 1, false},
				{"swarm/a/b/c/d", "deeper", 1, false},
				{"other/dev-1/status", "skip", 1, false},
			},
		},
		{
			name: "overlapping filters dedup to max qos",
			subs: []subCase{
				{"app", "swarm/+/status", 0},
				{"app", "swarm/#", 1},
				{"other", "swarm/dev-9/status", 1},
			},
			pubs: []pubCase{
				{"swarm/dev-9/status", "once", 1, false},
			},
		},
		{
			name: "dollar topics hidden from wildcards",
			subs: []subCase{
				{"wild", "#", 1},
				{"sys", "$SYS/broker/load", 1},
			},
			pubs: []pubCase{
				{"$SYS/broker/load", "internal", 1, false},
				{"normal/topic", "visible", 1, false},
			},
		},
		{
			name: "retained delivered to late subscriber",
			pubs: []pubCase{
				{"swarm/dev-4/status", "state4", 1, true},
				{"swarm/dev-5/status", "state5", 0, true},
				{"swarm/dev-4/status", "live", 0, false},
			},
			subsAfter: []subCase{
				{"late-a", "swarm/+/status", 1},
				{"late-b", "swarm/dev-4/status", 1},
				{"late-c", "swarm/dev-5/#", 0},
			},
		},
		{
			name: "retained overwrite and clear",
			pubs: []pubCase{
				{"swarm/dev-6/status", "v1", 1, true},
				{"swarm/dev-6/status", "v2", 1, true}, // overwrite
				{"swarm/dev-7/status", "gone", 1, true},
				{"swarm/dev-7/status", "", 1, true}, // empty payload clears
			},
			subsAfter: []subCase{
				{"late", "swarm/+/status", 1},
			},
		},
		{
			name: "qos downgrade to subscription",
			subs: []subCase{
				{"q0", "swarm/+/status", 0},
			},
			pubs: []pubCase{
				{"swarm/dev-8/status", "downgraded", 1, false},
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			single := runSemantics(t, 1, tc.subs, tc.pubs, tc.subsAfter)
			pooled := runSemantics(t, 3, tc.subs, tc.pubs, tc.subsAfter)
			// Every table case is built to deliver something; an empty
			// set means the case is broken, not that semantics match.
			if len(single) == 0 {
				t.Fatalf("single-broker run delivered nothing — broken test case")
			}
			if fmt.Sprint(single) != fmt.Sprint(pooled) {
				t.Fatalf("delivery sets differ\nsingle: %v\npool:   %v", single, pooled)
			}
		})
	}
}

// runSemantics executes one table case against a pool with the given
// shard count (1 == plain single broker semantics) and returns the
// sorted delivery set.
func runSemantics(t *testing.T, shards int, subs []subCase, pubs []pubCase, subsAfter []subCase) []delivery {
	t.Helper()
	pool := NewPool(PoolOptions{Shards: shards})
	defer pool.Close()
	rec := &recorder{}
	for _, s := range subs {
		if err := pool.Subscribe(s.client, s.filter, s.qos, rec.handler(s.client)); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range pubs {
		if err := pool.Publish("pub", p.topic, []byte(p.payload), p.qos, p.retain); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range subsAfter {
		if err := pool.Subscribe(s.client, s.filter, s.qos, rec.handler(s.client)); err != nil {
			t.Fatal(err)
		}
	}
	// In-process delivery is synchronous end-to-end (publish → hook →
	// forward → deliver all on the calling goroutine), so no settling
	// wait is needed.
	return rec.sorted()
}

// TestBridgeCrossShardPlacement pins the property the table test
// relies on: with 3 shards, the test's topics and client ids actually
// land on more than one shard, so the equivalence above genuinely
// crosses the bridge.
func TestBridgeCrossShardPlacement(t *testing.T) {
	pool := NewPool(PoolOptions{Shards: 3})
	defer pool.Close()
	shardsSeen := map[int]bool{}
	for i := 0; i < 10; i++ {
		shardsSeen[pool.ShardFor(DeviceTopic("swarm", i))] = true
	}
	if len(shardsSeen) < 2 {
		t.Fatalf("all test topics hash to one shard — table test would not exercise the bridge")
	}
	clients := map[int]bool{}
	for _, id := range []string{"app-a", "app-b", "logger", "leaf", "late-a", "late-b", "late-c"} {
		clients[pool.ShardFor(id)] = true
	}
	if len(clients) < 2 {
		t.Fatalf("all test clients hash to one shard — table test would not exercise the bridge")
	}
}

// TestBridgeIndexCleanup verifies the subscription index drains when
// subscriptions go away via unsubscribe — refcounts, not booleans, so
// two clients on one filter survive one leaving.
func TestBridgeIndexCleanup(t *testing.T) {
	pool := NewPool(PoolOptions{Shards: 2})
	defer pool.Close()
	noop := func(broker.Message) {}
	if err := pool.Subscribe("c1", "a/+/c", 0, noop); err != nil {
		t.Fatal(err)
	}
	if err := pool.Subscribe("c2", "a/+/c", 0, noop); err != nil {
		t.Fatal(err)
	}
	if err := pool.Subscribe("c1", "a/b/c", 0, noop); err != nil {
		t.Fatal(err)
	}
	br := pool.bridge
	wild, wildList, concrete := bridgeIndexSizes(br)
	if wild != 1 || wildList != 1 || concrete != 1 {
		t.Fatalf("index = %d wild (%d listed), %d concrete; want 1 (1), 1", wild, wildList, concrete)
	}
	pool.Unsubscribe("c1", "a/+/c")
	if !bridgeHasWild(br, "a/+/c") {
		t.Fatal("filter dropped while c2 still subscribed")
	}
	pool.Unsubscribe("c2", "a/+/c")
	pool.Unsubscribe("c1", "a/b/c")
	waitCondSwarm(t, time.Second, func() bool {
		wild, wildList, concrete := bridgeIndexSizes(br)
		return wild == 0 && wildList == 0 && concrete == 0
	}, "bridge index did not drain")
}

// bridgeIndexSizes counts the wildcard index, the route view's
// wildcard list and the concrete index.
func bridgeIndexSizes(br *bridge) (wild, wildList, concrete int) {
	br.mu.Lock()
	defer br.mu.Unlock()
	br.concrete.Range(func(any, any) bool { concrete++; return true })
	return len(br.wild), len(br.view.Load().wild), concrete
}

func bridgeHasWild(br *bridge, filter string) bool {
	br.mu.Lock()
	defer br.mu.Unlock()
	r, ok := br.wild[filter]
	return ok && !r.unused()
}

// TestBridgeWireClientEquivalence runs wildcard delivery with real
// wire clients attached to different shards: a publisher on shard A's
// listener, subscribers on other shards' listeners, proving the
// bridge serves the TCP path too, not just in-process subscriptions.
func TestBridgeWireClientEquivalence(t *testing.T) {
	pool := NewPool(PoolOptions{Shards: 3})
	defer pool.Close()
	for i := 0; i < pool.NumShards(); i++ {
		if err := pool.Shard(i).ListenAndServe("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
	}
	rec := &recorder{}
	var clients []*broker.Client
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	// One wire subscriber per shard, all on the same wildcard.
	for i := 0; i < pool.NumShards(); i++ {
		c, err := broker.Dial(pool.Shard(i).Addr(), &broker.ClientOptions{ClientID: fmt.Sprintf("wire-%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
		if err := c.Subscribe("wire/+/status", 1, rec.handler(fmt.Sprintf("wire-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	pub, err := broker.Dial(pool.Shard(0).Addr(), &broker.ClientOptions{ClientID: "wire-pub"})
	if err != nil {
		t.Fatal(err)
	}
	clients = append(clients, pub)
	const n = 20
	for i := 0; i < n; i++ {
		if err := pub.Publish(fmt.Sprintf("wire/dev-%d/status", i), []byte("x"), 1, false); err != nil {
			t.Fatal(err)
		}
	}
	want := n * pool.NumShards()
	waitCondSwarm(t, 5*time.Second, func() bool {
		return len(rec.sorted()) == want
	}, "wire subscribers did not receive the full cross-shard set")
}

// waitCondSwarm polls cond until true or the bound elapses.
func waitCondSwarm(t *testing.T, bound time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(bound)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !cond() {
		t.Fatal(msg)
	}
}

// TestBridgeWritesReachLaterPublishes pins the bridge's ordering
// promise with publishers running on every shard: a subscribe, sever
// or ReviveShard that has returned is seen by a publish that starts
// after it. The checked publishes enter a shard directly, as a wire
// client's do, so no pool lock orders them after the write.
func TestBridgeWritesReachLaterPublishes(t *testing.T) {
	const shards = 4
	pool := NewPool(PoolOptions{Shards: shards, Health: HealthOptions{Disable: true}})
	defer pool.Close()
	// One client anchored on each shard, so every check crosses the
	// bridge from a publishing shard to a different owner.
	owners := make([]string, shards)
	for n, found := 0, 0; found < shards; n++ {
		id := fmt.Sprintf("sub-%d", n)
		if s := pool.ShardFor(id); owners[s] == "" {
			owners[s] = id
			found++
		}
	}
	if err := pool.Subscribe("noise-sink", "noise/+", 0, func(broker.Message) {}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < shards; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				// A killed shard answers ErrClosed; that is fine here.
				_ = pool.Shard(n%shards).PublishQoS("noise", fmt.Sprintf("noise/%d", g), []byte("n"), 0, false)
			}
		}()
	}
	defer func() { close(stop); wg.Wait() }()

	var mu sync.Mutex
	got := map[string]int{}
	count := func(topic string) int {
		mu.Lock()
		defer mu.Unlock()
		return got[topic]
	}
	publish := func(from int, topic string) {
		t.Helper()
		if err := pool.Shard(from).PublishQoS("checker", topic, []byte("x"), 1, false); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 20; round++ {
		for s, owner := range owners {
			from := (s + 1 + round%(shards-1)) % shards
			topic := fmt.Sprintf("check/%d/%d", round, s)
			if err := pool.Subscribe(owner, topic, 1, func(m broker.Message) {
				mu.Lock()
				got[m.Topic]++
				mu.Unlock()
			}); err != nil {
				t.Fatal(err)
			}
			publish(from, topic)
			if n := count(topic); n != 1 {
				t.Fatalf("round %d: publish after subscribe on shard %d delivered %d times", round, s, n)
			}

			if err := pool.PartitionShard(s); err != nil {
				t.Fatal(err)
			}
			publish(from, topic)
			if n := count(topic); n != 1 {
				t.Fatalf("round %d: publish after severing shard %d crossed the cut (%d deliveries)", round, s, n)
			}
			if err := pool.HealShard(s); err != nil {
				t.Fatal(err)
			}
			if n := count(topic); n != 2 {
				t.Fatalf("round %d: heal of shard %d flushed to %d deliveries, want 2", round, s, n)
			}

			if err := pool.KillShard(s); err != nil {
				t.Fatal(err)
			}
			if err := pool.ReviveShard(s); err != nil {
				t.Fatal(err)
			}
			publish(from, topic)
			if n := count(topic); n != 3 {
				t.Fatalf("round %d: publish after reviving shard %d delivered %d times, want 3 in all", round, s, n)
			}
		}
	}
}
