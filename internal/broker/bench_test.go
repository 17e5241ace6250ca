package broker

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// BenchmarkCodecPublish measures wire-format encode+decode of a
// typical status PUBLISH.
func BenchmarkCodecPublish(b *testing.B) {
	p := &Packet{
		Type:     PUBLISH,
		Topic:    "digibox/occupancy-042/status",
		Payload:  []byte(`{"triggered":true}`),
		QoS:      1,
		PacketID: 7,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := p.Encode()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ReadPacket(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrieMatch measures subscription matching against a trie
// populated with per-device filters plus wildcards — the broker's
// per-publish hot path.
func BenchmarkTrieMatch(b *testing.B) {
	trie := newSubTrie()
	for i := 0; i < 1000; i++ {
		trie.subscribe(&subscription{
			clientID: fmt.Sprintf("c%d", i),
			filter:   fmt.Sprintf("digibox/dev%04d/status", i),
		})
	}
	trie.subscribe(&subscription{clientID: "app", filter: "digibox/+/status"})
	trie.subscribe(&subscription{clientID: "logger", filter: "digibox/#"})
	topics := make([]string, 1000)
	for i := range topics {
		topics[i] = fmt.Sprintf("digibox/dev%04d/status", i)
	}
	sc := new(matchScratch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if subs := trie.deliverySet(topics[i%1000], sc); len(subs) != 3 {
			b.Fatalf("matched %d", len(subs))
		}
	}
}

// BenchmarkEndToEndQoS0 measures broker throughput: one publisher, one
// wildcard subscriber, QoS 0 over loopback TCP.
func BenchmarkEndToEndQoS0(b *testing.B) {
	br := NewBroker(nil)
	if err := br.ListenAndServe("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer br.Close()
	pub, err := Dial(br.Addr(), &ClientOptions{ClientID: "pub"})
	if err != nil {
		b.Fatal(err)
	}
	defer pub.Close()
	sub, err := Dial(br.Addr(), &ClientOptions{ClientID: "sub"})
	if err != nil {
		b.Fatal(err)
	}
	defer sub.Close()

	var received int64
	if err := sub.Subscribe("bench/#", 0, func(Message) {
		atomic.AddInt64(&received, 1)
	}); err != nil {
		b.Fatal(err)
	}
	payload := []byte(`{"triggered":true}`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pub.Publish("bench/topic", payload, 0, false); err != nil {
			b.Fatal(err)
		}
	}
	// Drain until deliveries stall: QoS 0 permits drops under
	// back-pressure, so waiting for exactly b.N would hang.
	drainUntilStall(&received, int64(b.N))
	b.StopTimer()
	b.ReportMetric(float64(atomic.LoadInt64(&received))/b.Elapsed().Seconds(), "msgs/s")
}

// drainUntilStall waits until count reaches want or stops growing for
// 200ms (whichever comes first), bounded at 10s.
func drainUntilStall(count *int64, want int64) {
	deadline := time.Now().Add(10 * time.Second)
	last := int64(-1)
	lastChange := time.Now()
	for time.Now().Before(deadline) {
		cur := atomic.LoadInt64(count)
		if cur >= want {
			return
		}
		if cur != last {
			last = cur
			lastChange = time.Now()
		} else if time.Since(lastChange) > 200*time.Millisecond {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkEndToEndQoS1 measures acked round-trip publishing.
func BenchmarkEndToEndQoS1(b *testing.B) {
	br := NewBroker(nil)
	if err := br.ListenAndServe("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer br.Close()
	pub, err := Dial(br.Addr(), &ClientOptions{ClientID: "pub"})
	if err != nil {
		b.Fatal(err)
	}
	defer pub.Close()
	payload := []byte(`{"power":"on"}`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pub.Publish("bench/topic", payload, 1, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMetricsOverhead quantifies what the observability layer
// costs on the broker's publish hot path: the same one-publisher
// one-subscriber QoS 0 wire workload, with the registry + span tracer
// bound versus bare. The instrumented path must stay within 5% of the
// bare path: counters are gather-time closures over the broker's own
// atomics (zero hot-path cost), and latency spans sample 1-in-8
// messages, so the per-message additions amortize to one atomic add
// plus an eighth of a span's slot write and histogram observes.
func BenchmarkMetricsOverhead(b *testing.B) {
	run := func(b *testing.B, opts *Options) {
		br := NewBroker(opts)
		if err := br.ListenAndServe("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		defer br.Close()
		pub, err := Dial(br.Addr(), &ClientOptions{ClientID: "pub"})
		if err != nil {
			b.Fatal(err)
		}
		defer pub.Close()
		sub, err := Dial(br.Addr(), &ClientOptions{ClientID: "sub"})
		if err != nil {
			b.Fatal(err)
		}
		defer sub.Close()
		var received int64
		if err := sub.Subscribe("bench/#", 0, func(Message) {
			atomic.AddInt64(&received, 1)
		}); err != nil {
			b.Fatal(err)
		}
		payload := []byte(`{"triggered":true}`)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := pub.Publish("bench/topic", payload, 0, false); err != nil {
				b.Fatal(err)
			}
		}
		drainUntilStall(&received, int64(b.N))
		b.StopTimer()
		b.ReportMetric(float64(atomic.LoadInt64(&received))/b.Elapsed().Seconds(), "msgs/s")
	}
	b.Run("bare", func(b *testing.B) { run(b, nil) })
	b.Run("instrumented", func(b *testing.B) {
		r := obs.NewRegistry()
		run(b, &Options{Obs: r, Tracer: obs.NewTracer(r)})
	})
}

// BenchmarkFanout measures high-fanout delivery: one in-process
// publisher, many wire subscribers all matching the same wildcard
// filter, so each publish multiplies into fanout socket writes. This
// is the hot path the sized buffered writer with flush-on-idle
// optimises — without it every outbound packet is one conn.Write
// syscall.
func BenchmarkFanout(b *testing.B) {
	for _, fanout := range []int{8, 32, 64} {
		b.Run(fmt.Sprintf("subs=%d", fanout), func(b *testing.B) {
			benchFanout(b, fanout)
		})
	}
}

func benchFanout(b *testing.B, fanout int) {
	br := NewBroker(nil)
	if err := br.ListenAndServe("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer br.Close()

	var received int64
	clients := make([]*Client, 0, fanout)
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	for i := 0; i < fanout; i++ {
		c, err := Dial(br.Addr(), &ClientOptions{ClientID: fmt.Sprintf("fan-sub-%d", i)})
		if err != nil {
			b.Fatal(err)
		}
		clients = append(clients, c)
		if err := c.Subscribe("fan/#", 0, func(Message) {
			atomic.AddInt64(&received, 1)
		}); err != nil {
			b.Fatal(err)
		}
	}

	payload := []byte(`{"seq":1,"v":0.42}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := br.Publish("fan/load", payload, false); err != nil {
			b.Fatal(err)
		}
	}
	// QoS 0 permits drops under back-pressure, so drain until the
	// delivery count stalls rather than insisting on b.N×fanout.
	drainUntilStall(&received, int64(b.N)*int64(fanout))
	b.StopTimer()
	b.ReportMetric(float64(atomic.LoadInt64(&received))/b.Elapsed().Seconds(), "deliveries/s")
}

// BenchmarkAblationInProcessVsWire quantifies the design choice of
// letting co-located mocks publish through the broker in-process (the
// digi runtime's fast path) versus over the MQTT wire: both paths end
// at the same subscriber.
func BenchmarkAblationInProcessVsWire(b *testing.B) {
	setup := func(b *testing.B) (*Broker, *Client, *int64) {
		br := NewBroker(nil)
		if err := br.ListenAndServe("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(br.Close)
		sub, err := Dial(br.Addr(), &ClientOptions{ClientID: "sub"})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { sub.Close() })
		var received int64
		if err := sub.Subscribe("abl/#", 0, func(Message) {
			atomic.AddInt64(&received, 1)
		}); err != nil {
			b.Fatal(err)
		}
		return br, sub, &received
	}
	payload := []byte(`{"triggered":true}`)
	drain := func(b *testing.B, received *int64) {
		drainUntilStall(received, int64(b.N))
	}

	b.Run("in-process", func(b *testing.B) {
		br, _, received := setup(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := br.Publish("abl/t", payload, false); err != nil {
				b.Fatal(err)
			}
		}
		drain(b, received)
	})
	b.Run("wire", func(b *testing.B) {
		br, _, received := setup(b)
		pub, err := Dial(br.Addr(), &ClientOptions{ClientID: "pub"})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { pub.Close() })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := pub.Publish("abl/t", payload, 0, false); err != nil {
				b.Fatal(err)
			}
		}
		drain(b, received)
	})
}
