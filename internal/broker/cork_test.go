package broker

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// A wire session's write loop corks a batch of in-process deliveries
// for one scheduler round before it flushes. These tests pin what the
// cork must never change, on one P and on two: no delivery becomes a
// drop, no publisher waits on a stalled socket, and wire-born traffic
// still flushes packet by packet. None of them asserts timing beyond
// "does not hang".

// onProcs runs body once per GOMAXPROCS value in {1, 2}: the cork's
// correctness rests on the scheduler, so it must hold when publishers
// and the write loop share one P and when they do not.
func onProcs(t *testing.T, body func(t *testing.T)) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			body(t)
		})
	}
}

// Bursts of retained QoS 0 publishes, each from 800 goroutines at
// once, to one wire subscriber: the session's queue (256) fills while
// its write loop is corked, and that is a batch being gathered, not a
// slow consumer — every message arrives exactly once, in per-topic
// order, and nothing is dropped.
func TestInProcessBurstDeliversEveryMessage(t *testing.T) {
	const publishers, bursts = 800, 4
	onProcs(t, func(t *testing.T) {
		b := startBroker(t, nil)
		var mu sync.Mutex
		got := make(map[string][]byte, publishers)
		total := 0
		sub := dialClient(t, b, "app")
		if err := sub.Subscribe("burst/#", 0, func(m Message) {
			mu.Lock()
			defer mu.Unlock()
			got[m.Topic] = append(got[m.Topic], m.Payload[0])
			total++
		}); err != nil {
			t.Fatal(err)
		}
		for seq := 0; seq < bursts; seq++ {
			start := make(chan struct{})
			var wg sync.WaitGroup
			for i := 0; i < publishers; i++ {
				wg.Add(1)
				go func(topic string) {
					defer wg.Done()
					<-start
					if err := b.PublishQoS(topic, topic, []byte{byte(seq)}, 0, true); err != nil {
						t.Error(err)
					}
				}(fmt.Sprintf("burst/%03d", i))
			}
			close(start)
			wg.Wait()
			waitCond(t, func() bool {
				mu.Lock()
				defer mu.Unlock()
				return total == (seq+1)*publishers || b.Stats().Dropped > 0
			}, fmt.Sprintf("burst %d", seq))
			if st := b.Stats(); st.Dropped != 0 {
				t.Fatalf("burst %d: a corked burst shed %d messages (%+v)", seq, st.Dropped, st)
			}
		}
		mu.Lock()
		defer mu.Unlock()
		if len(got) != publishers {
			t.Fatalf("%d topics delivered, want %d", len(got), publishers)
		}
		for topic, seqs := range got {
			if len(seqs) != bursts {
				t.Fatalf("%s: %d deliveries, want %d: %v", topic, len(seqs), bursts, seqs)
			}
			for i, seq := range seqs {
				if int(seq) != i {
					t.Fatalf("%s: delivery %d carries %d (all: %v)", topic, i, seq, seqs)
				}
			}
		}
	})
}

// A wire subscriber that never reads, and a burst of in-process QoS 0
// publishes to it from many goroutines: once its socket and queue are
// full the write loop blocks in a write, and no publisher may wait on
// that. Every PublishQoS returns, deliveries are counted as routed and
// the excess is shed and counted, as for any slow consumer.
func TestStalledSubscriberDoesNotStallInProcessPublishers(t *testing.T) {
	const (
		queue      = 8
		publishers = 64
		each       = 64   // 4096 publishes in all
		payload    = 2048 // 8 MB, far more than the shrunk socket buffers hold
	)
	onProcs(t, func(t *testing.T) {
		b := startBroker(t, &Options{
			OutboundQueue: queue,
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

		body := make([]byte, payload)
		start := make(chan struct{})
		slowest := make(chan time.Duration, publishers)
		var wg sync.WaitGroup
		for i := 0; i < publishers; i++ {
			wg.Add(1)
			go func(topic string) {
				defer wg.Done()
				<-start
				var worst time.Duration
				for j := 0; j < each; j++ {
					t0 := time.Now()
					b.PublishQoS(topic, topic, body, 0, false)
					worst = max(worst, time.Since(t0))
				}
				slowest <- worst
			}(fmt.Sprintf("bp/%d", i))
		}
		close(start)
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			st := b.Stats()
			b.Close() // releases the stalled publishers
			<-done
			t.Fatalf("publishers stalled behind a subscriber that never reads; broker %+v", st)
		}
		close(slowest)
		for d := range slowest {
			// A publisher held by the stalled socket would never return;
			// an unheld one takes microseconds.
			if d > 2*time.Second {
				t.Errorf("slowest in-process publish took %v", d)
			}
		}
		st := b.Stats()
		if st.MessagesOut != publishers*each {
			t.Errorf("%d deliveries routed, want %d", st.MessagesOut, publishers*each)
		}
		if st.Dropped == 0 || st.Dropped >= publishers*each {
			t.Errorf("%d of %d deliveries shed: want some, not all (%+v)", st.Dropped, publishers*each, st)
		}
	})
}

// A sequential wire publisher — each message published once the last
// has arrived — costs one socket write per delivered packet at QoS 0,
// and one per delivery plus one per PUBACK at QoS 1: wire-born batches
// flush at once, uncorked.
func TestWirePublisherFlushesEachPacket(t *testing.T) {
	const n = 200
	for _, qos := range []byte{0, 1} {
		t.Run(fmt.Sprintf("qos=%d", qos), func(t *testing.T) {
			onProcs(t, func(t *testing.T) {
				b := startBroker(t, nil)
				// No keepalive: a PINGRESP would be one more write.
				opts := func(id string) *ClientOptions { return &ClientOptions{ClientID: id, KeepAlive: -1} }
				sub, err := Dial(b.Addr(), opts("sub"))
				if err != nil {
					t.Fatal(err)
				}
				defer sub.Close()
				arrived := make(chan Message, 1)
				if err := sub.Subscribe("seq/#", qos, func(m Message) { arrived <- m }); err != nil {
					t.Fatal(err)
				}
				pub, err := Dial(b.Addr(), opts("pub"))
				if err != nil {
					t.Fatal(err)
				}
				defer pub.Close()
				before := b.Stats().Flushes
				for i := 0; i < n; i++ {
					if err := pub.Publish("seq/x", []byte{byte(i)}, qos, false); err != nil {
						t.Fatal(err)
					}
					if m := waitMsg(t, arrived, fmt.Sprintf("message %d", i)); m.Payload[0] != byte(i) {
						t.Fatalf("message %d carries %d", i, m.Payload[0])
					}
				}
				want := int64(n)
				if qos == 1 {
					want *= 2 // the publisher's PUBACKs
				}
				if got := b.Stats().Flushes - before; got != want {
					t.Fatalf("%d socket writes for %d sequential QoS %d publishes, want %d", got, n, qos, want)
				}
			})
		})
	}
}
