package broker

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Property: deliverySet — sorted per-node lists, k-way merge — returns
// what the old route() computed with matchAll and a per-publish map,
// and what a trie-free scan of the live subscriptions with MatchTopic
// gives, through any interleaving of subscribe, replace, unsubscribe
// and removeClient; and it is strictly ascending by client id.
func TestDeliverySetMatchesOracle(t *testing.T) {
	// "+" and "#" as topic levels cannot come from a PUBLISH, but they
	// are the wildcard nodes' child keys: the same node is then reached
	// twice and the merge must still emit its clients once.
	topicLevels := []string{"a", "b", "c", "", "$s", "+", "#"}
	filterLevels := []string{"a", "b", "c", "", "$s", "+", "+"}
	genFilter := func(r *rand.Rand) string {
		parts := make([]string, r.Intn(4))
		for i := range parts {
			parts[i] = filterLevels[r.Intn(len(filterLevels))]
		}
		if len(parts) == 0 || r.Intn(3) == 0 {
			parts = append(parts, "#")
		}
		if f := strings.Join(parts, "/"); f != "" {
			return f
		}
		return "/" // a lone empty level is no filter; two are
	}
	genTopic := func(r *rand.Rand) string {
		parts := make([]string, 1+r.Intn(4))
		for i := range parts {
			parts[i] = topicLevels[r.Intn(len(topicLevels))]
		}
		return strings.Join(parts, "/")
	}
	const cases = 5000
	checked := 0
	for seed := int64(0); seed < cases; seed++ {
		r := rand.New(rand.NewSource(seed))
		trie := newSubTrie()
		live := map[string]map[string]byte{} // client -> filter -> qos
		clients := 1 + r.Intn(6)
		for step, steps := 0, 4+r.Intn(24); step < steps; step++ {
			client := fmt.Sprintf("c%d", r.Intn(clients))
			switch op := r.Intn(10); {
			case op < 7: // each client ends up holding 1-4 filters, mostly overlapping
				if len(live[client]) == 4 {
					continue
				}
				f, q := genFilter(r), byte(r.Intn(2))
				if err := ValidateTopicFilter(f); err != nil {
					t.Fatalf("generator made an invalid filter %q: %v", f, err)
				}
				trie.subscribe(&subscription{clientID: client, filter: f, qos: q})
				if live[client] == nil {
					live[client] = map[string]byte{}
				}
				live[client][f] = q
			case op < 9:
				f := genFilter(r) // usually one the client does not hold
				if held := sortedKeys(live[client]); len(held) > 0 && r.Intn(4) > 0 {
					f = held[r.Intn(len(held))]
				}
				_, want := live[client][f]
				if got := trie.unsubscribe(client, f); got != want {
					t.Fatalf("seed %d: unsubscribe(%s, %q) = %v, want %v", seed, client, f, got, want)
				}
				delete(live[client], f)
			default:
				removed := trie.removeClient(client)
				if len(removed) != len(live[client]) {
					t.Fatalf("seed %d: removeClient(%s) removed %v, held %v", seed, client, removed, live[client])
				}
				delete(live, client)
			}
		}
		for trial := 0; trial < 4; trial++ {
			topic := genTopic(r)
			got := deliverySetOf(trie, topic)
			scan := map[string]byte{}
			for client, filters := range live {
				for f, q := range filters {
					if cur, ok := scan[client]; MatchTopic(f, topic) && (!ok || q > cur) {
						scan[client] = q
					}
				}
			}
			old := dedupMaxQoS(trie.matchAll(topic))
			if len(got) != len(old) || len(got) != len(scan) {
				t.Fatalf("seed %d topic %q: deliverySet %v, old route %v, scan %v", seed, topic, collectClients(got), old, scan)
			}
			for i, sub := range got {
				if i > 0 && got[i-1].clientID >= sub.clientID {
					t.Fatalf("seed %d topic %q: not strictly ascending: %v", seed, topic, collectClients(got))
				}
				if q, ok := old[sub.clientID]; !ok || q != sub.qos {
					t.Fatalf("seed %d topic %q: %s at QoS %d, old route says %d (present %v)", seed, topic, sub.clientID, sub.qos, q, ok)
				}
				if q, ok := scan[sub.clientID]; !ok || q != sub.qos {
					t.Fatalf("seed %d topic %q: %s at QoS %d, scan says %d (present %v)", seed, topic, sub.clientID, sub.qos, q, ok)
				}
				if live[sub.clientID][sub.filter] != sub.qos || !MatchTopic(sub.filter, topic) {
					t.Fatalf("seed %d topic %q: %s delivered through %q, which it does not hold at QoS %d", seed, topic, sub.clientID, sub.filter, sub.qos)
				}
			}
			if len(got) > 0 {
				checked++
			}
		}
	}
	if checked < cases {
		t.Fatalf("only %d of %d topics matched anything; the generator is too sparse to test the merge", checked, 4*cases)
	}
}

func sortedKeys(m map[string]byte) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Property: a publish reads the trie without a lock while writers
// change it, and sees every write whole. Two writers subscribe,
// unsubscribe and remove clients while two readers take delivery sets;
// each set a reader sees must be the matchAll oracle's for a trie state
// between the last write finished before its read and the first one
// finished after, never a mix of two. The states are rebuilt afterwards
// by replaying the writes in order on a second trie, so the writers
// run back to back. Under -race a writer that changes a node or list a
// reader may hold fails as a data race.
func TestDeliverySetSeesWholeWrites(t *testing.T) {
	topics := []string{"a/b/c", "a/b", "a", "a/x/c", "$s/b"}
	filters := []string{"a/b/c", "a/+/c", "a/#", "+/b", "#", "a/b", "+/+/+", "$s/#", "a/b/c/#"}
	type write struct {
		kind   int // 0 subscribe, 1 unsubscribe, 2 removeClient
		client string
		filter string
		qos    byte
	}
	apply := func(trie *subTrie, w write) {
		switch w.kind {
		case 0:
			trie.subscribe(&subscription{clientID: w.client, filter: w.filter, qos: w.qos})
		case 1:
			trie.unsubscribe(w.client, w.filter)
		default:
			trie.removeClient(w.client)
		}
	}
	// key renders one delivery set as "client:qos" pairs in client order.
	key := func(perClient map[string]byte) string {
		var b strings.Builder
		for _, c := range sortedKeys(perClient) {
			fmt.Fprintf(&b, "%s:%d,", c, perClient[c])
		}
		return b.String()
	}
	trie := newSubTrie()
	var (
		mu      sync.Mutex // orders the writes as they are logged
		log     []write
		applied atomic.Int64 // writes finished
	)
	type read struct {
		from, to int64 // states the read may have seen
		topic    string
		got      string
	}
	var writers, readers sync.WaitGroup
	var done atomic.Bool
	for w := int64(0); w < 2; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			r := rand.New(rand.NewSource(w))
			for i := 0; i < 3000; i++ {
				kind := [10]int{0, 0, 0, 1, 1, 1, 2, 2, 2, 2}[r.Intn(10)]
				wr := write{kind: kind, client: fmt.Sprintf("c%d", r.Intn(6)), filter: filters[r.Intn(len(filters))], qos: byte(r.Intn(2))}
				mu.Lock()
				apply(trie, wr)
				log = append(log, wr)
				applied.Store(int64(len(log)))
				mu.Unlock()
			}
		}()
	}
	reads := make([][]read, 2)
	for k := range reads {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; !done.Load() && i < 100000; i++ {
				topic := topics[i%len(topics)]
				from := applied.Load()
				got := deliverySetOf(trie, topic)
				// The write after the last one logged may already be in
				// the trie: its writer logs it after it returns.
				to := applied.Load() + 1
				perClient := map[string]byte{}
				for j, sub := range got {
					if j > 0 && got[j-1].clientID >= sub.clientID {
						t.Errorf("topic %q: not strictly ascending: %v", topic, collectClients(got))
						return
					}
					perClient[sub.clientID] = sub.qos
				}
				reads[k] = append(reads[k], read{from, to, topic, key(perClient)})
			}
		}()
	}
	writers.Wait()
	done.Store(true)
	readers.Wait()

	replay := newSubTrie()
	states := make([]map[string]string, 0, len(log)+1)
	for i := 0; ; i++ {
		st := map[string]string{}
		for _, topic := range topics {
			st[topic] = key(dedupMaxQoS(replay.matchAll(topic)))
		}
		states = append(states, st)
		if i == len(log) {
			break
		}
		apply(replay, log[i])
	}
	checked := 0
	for _, rs := range reads {
		for _, rd := range rs {
			ok := false
			for v := rd.from; v <= rd.to && v < int64(len(states)); v++ {
				ok = ok || states[v][rd.topic] == rd.got
			}
			if !ok {
				t.Fatalf("topic %q: delivery set {%s} is no trie state in %d..%d", rd.topic, rd.got, rd.from, rd.to)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no read was checked")
	}
}

// The delivery path allocates nothing per subscriber: matching works in
// pooled scratch and an in-process subscriber gets its Message by value.
// (The race detector makes sync.Pool drop entries at random, so the
// counts only hold without it.)
func TestRouteAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool discards entries under -race")
	}
	b := NewBroker(nil)
	defer b.Close()
	var delivered int
	for k := 0; k < 64; k++ {
		for _, f := range []string{"fan/#", "fan/+/status"} {
			if err := b.SubscribeInProcess(fmt.Sprintf("s%d", k), f, 1, func(Message) { delivered++ }); err != nil {
				t.Fatal(err)
			}
		}
	}
	payload := []byte("payload")
	publish := func(topic string) func() {
		return func() {
			if err := b.PublishQoS("pub", topic, payload, 1, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := testing.AllocsPerRun(100, publish("fan/dev-5/status")); n > 2 {
		t.Errorf("QoS 1 publish into 64 clients x 2 filters: %v allocations, want <= 2", n)
	}
	if delivered != 101*64 { // AllocsPerRun runs the function once more to warm up
		t.Errorf("delivered %d, want %d: one copy per client", delivered, 101*64)
	}
	if n := testing.AllocsPerRun(100, publish("other/dev-5/status")); n > 1 {
		t.Errorf("publish with no match: %v allocations, want <= 1", n)
	}
}

// rawSession opens a TCP connection and writes pkts in a single Write —
// one TCP segment — returning the connection for the test to read (or
// not read) replies from.
func rawSession(t *testing.T, addr string, pkts ...*Packet) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	var wire []byte
	for _, p := range pkts {
		if wire, err = p.AppendEncode(wire); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	return conn
}

func readReply(t *testing.T, conn net.Conn, want PacketType) *Packet {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	pkt, err := ReadPacket(conn)
	if err != nil {
		t.Fatalf("waiting for %v: %v", want, err)
	}
	if pkt.Type != want {
		t.Fatalf("got %v, want %v", pkt.Type, want)
	}
	return pkt
}

// countingConn stands in for a chaos proxy: a ConnHook wrapper the
// session must keep reading through.
type countingConn struct {
	net.Conn
	reads *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

// A client may pipeline CONNECT, SUBSCRIBE and PUBLISH without waiting
// for the CONNACK. The CONNECT is read unbuffered and the rest through
// the read loop's buffer, so nothing may be lost at the hand-over —
// with a bare conn and with one a ConnHook wrapped.
func TestPipelinedConnectSubscribePublish(t *testing.T) {
	for _, hooked := range []bool{false, true} {
		t.Run(fmt.Sprintf("hooked=%v", hooked), func(t *testing.T) {
			var reads atomic.Int64
			opts := &Options{}
			if hooked {
				opts.ConnHook = func(c net.Conn) net.Conn { return countingConn{c, &reads} }
			}
			b := startBroker(t, opts)
			conn := rawSession(t, b.Addr(),
				&Packet{Type: CONNECT, ClientID: "eager", CleanSession: true},
				&Packet{Type: SUBSCRIBE, PacketID: 1, Filters: []string{"pipe/#"}, QoSs: []byte{1}},
				&Packet{Type: PUBLISH, Topic: "pipe/x", Payload: []byte("hello"), QoS: 1, PacketID: 2},
			)
			if ack := readReply(t, conn, CONNACK); ack.ReturnCode != ConnAccepted {
				t.Fatalf("CONNACK code %d", ack.ReturnCode)
			}
			if ack := readReply(t, conn, SUBACK); ack.PacketID != 1 || !bytes.Equal(ack.QoSs, []byte{1}) {
				t.Fatalf("SUBACK %+v", ack)
			}
			// Its own publish comes back, numbered by the session: the
			// first QoS 1 packet on this connection carries id 1.
			if m := readReply(t, conn, PUBLISH); m.Topic != "pipe/x" || string(m.Payload) != "hello" || m.QoS != 1 || m.PacketID != 1 {
				t.Fatalf("PUBLISH %+v", m)
			}
			if ack := readReply(t, conn, PUBACK); ack.PacketID != 2 {
				t.Fatalf("PUBACK %+v", ack)
			}
			if hooked && reads.Load() == 0 {
				t.Error("the session did not read through the ConnHook's conn")
			}
		})
	}
}

// A QoS 0 wire subscriber that stops reading its socket costs the
// publisher nothing: once the kernel's buffers and the session's queue
// are full its messages are dropped and counted, the queue stays at
// its bound, and a healthy QoS 1 subscriber still gets everything in
// order.
func TestStalledSubscriberDoesNotDelayPublisher(t *testing.T) {
	const (
		queue   = 8
		n       = 2048 // publishes, far more than the queue holds
		payload = 4096 // n*payload = 8 MB, far more than the shrunk socket buffers hold
	)
	b := startBroker(t, &Options{
		OutboundQueue: queue,
		// Small kernel buffers make the stalled socket fill early.
		ConnHook: func(c net.Conn) net.Conn {
			c.(*net.TCPConn).SetWriteBuffer(4096)
			return c
		},
	})
	stalled := rawSession(t, b.Addr(),
		&Packet{Type: CONNECT, ClientID: "stalled", CleanSession: true},
		&Packet{Type: SUBSCRIBE, PacketID: 1, Filters: []string{"bp/#"}, QoSs: []byte{0}},
	)
	stalled.(*net.TCPConn).SetReadBuffer(4096)
	readReply(t, stalled, CONNACK)
	readReply(t, stalled, SUBACK)
	// ...and from here on the stalled client never reads again.

	healthy := dialClient(t, b, "healthy")
	var mu sync.Mutex
	var seen []uint32
	if err := healthy.Subscribe("bp/#", 1, func(m Message) {
		mu.Lock()
		seen = append(seen, uint32(m.Payload[0])<<8|uint32(m.Payload[1]))
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	b.mu.Lock()
	sess := b.sessions["stalled"]
	b.mu.Unlock()
	if sess == nil || cap(sess.outbound) != queue {
		t.Fatalf("stalled session missing or queue not bounded at %d", queue)
	}

	pub := dialClient(t, b, "pub")
	body := make([]byte, payload)
	var slowest time.Duration
	for i := 0; i < n; i++ {
		body[0], body[1] = byte(i>>8), byte(i)
		start := time.Now()
		if err := pub.Publish("bp/x", body, 1, false); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
		slowest = max(slowest, time.Since(start))
		if depth := len(sess.outbound); depth > queue {
			t.Fatalf("publish %d: stalled session queues %d packets, bound is %d", i, depth, queue)
		}
	}
	// A publisher held up by the stalled session would sit until its
	// 5 s ack timeout; a healthy acked publish takes well under 1 ms.
	if slowest > 2*time.Second {
		t.Errorf("slowest publish took %v", slowest)
	}
	if st := b.Stats(); st.Dropped == 0 {
		t.Errorf("no drops counted: the stalled subscriber's socket never filled (%+v)", st)
	}
	waitCond(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(seen) >= n
	}, "the healthy subscriber to receive every publish")
	mu.Lock()
	defer mu.Unlock()
	for i, seq := range seen {
		if seq != uint32(i) {
			t.Fatalf("healthy subscriber: message %d carries sequence %d (%d received)", i, seq, len(seen))
		}
	}
}

// An acked exchange must not leave its ack timer armed: before, every
// QoS 1 publish kept a runtime timer and its channel alive for the
// whole AckTimeout (go.mod's go 1.22 selects the pre-1.23 timers,
// which the collector cannot free while armed).
func TestAckedPublishLeavesNoTimer(t *testing.T) {
	b := startBroker(t, nil)
	pub := dialClient(t, b, "pub") // default AckTimeout, 5 s
	heapObjects := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapObjects
	}
	if err := pub.Publish("t/a", []byte("warm"), 1, false); err != nil {
		t.Fatal(err)
	}
	before := heapObjects()
	const publishes = 20000
	for i := 0; i < publishes; i++ {
		if err := pub.Publish("t/a", []byte("x"), 1, false); err != nil {
			t.Fatal(err)
		}
	}
	if grew := int64(heapObjects()) - int64(before); grew >= 2000 {
		t.Errorf("%d acked publishes left %d more heap objects behind, want < 2000", publishes, grew)
	}
}
