package broker

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// startBroker launches a broker on a random loopback port.
func startBroker(t *testing.T, opts *Options) *Broker {
	t.Helper()
	b := NewBroker(opts)
	if err := b.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	return b
}

// Publish injects a message with no publisher identity.
func (b *Broker) Publish(topic string, payload []byte, retain bool) error {
	return b.PublishQoS("", topic, payload, 0, retain)
}

// Unsubscribe removes a subscription.
func (c *Client) Unsubscribe(filter string) error {
	c.mu.Lock()
	delete(c.subs, filter)
	disconnected := !c.connected
	auto := c.opts.AutoReconnect
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return c.err()
	}
	if disconnected && auto {
		// Nothing on the wire to undo; the filter simply will not be
		// re-established on reconnect.
		return nil
	}
	id, ch := c.allocID()
	if err := c.write(&Packet{Type: UNSUBSCRIBE, PacketID: id, Filters: []string{filter}}); err != nil {
		return err
	}
	_, err := c.await(id, ch, UNSUBACK, false)
	return err
}

func dialClient(t *testing.T, b *Broker, id string) *Client {
	t.Helper()
	c, err := Dial(b.Addr(), &ClientOptions{ClientID: id, KeepAlive: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func waitMsg(t *testing.T, ch <-chan Message, what string) Message {
	t.Helper()
	select {
	case m := <-ch:
		return m
	case <-time.After(3 * time.Second):
		t.Fatalf("timeout waiting for %s", what)
		return Message{}
	}
}

// waitCond polls until cond holds, replacing fixed sleeps that made
// these tests timing-sensitive on slow machines.
func waitCond(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// holds asserts cond stays true for a short settle window — the
// negative-assertion counterpart of waitCond, failing fast at the
// first violation instead of sleeping blind.
func holds(t *testing.T, window time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(window)
	for time.Now().Before(deadline) {
		if !cond() {
			t.Fatalf("%s violated", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestPublishSubscribeQoS0(t *testing.T) {
	b := startBroker(t, nil)
	pub := dialClient(t, b, "pub")
	sub := dialClient(t, b, "sub")

	ch := make(chan Message, 8)
	if err := sub.Subscribe("room/+/status", 0, func(m Message) { ch <- m }); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("room/lamp1/status", []byte("on"), 0, false); err != nil {
		t.Fatal(err)
	}
	m := waitMsg(t, ch, "publish")
	if m.Topic != "room/lamp1/status" || string(m.Payload) != "on" {
		t.Errorf("got %+v", m)
	}
	if err := pub.Publish("other/topic", []byte("x"), 0, false); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-ch:
		t.Errorf("unexpected delivery %+v", m)
	case <-time.After(100 * time.Millisecond):
	}
}

func TestPublishQoS1Acked(t *testing.T) {
	b := startBroker(t, nil)
	pub := dialClient(t, b, "pub")
	sub := dialClient(t, b, "sub")
	ch := make(chan Message, 1)
	if err := sub.Subscribe("q1/topic", 1, func(m Message) { ch <- m }); err != nil {
		t.Fatal(err)
	}
	// Publish blocks until PUBACK arrives; an unacked publish would
	// time out and fail the test.
	if err := pub.Publish("q1/topic", []byte("hello"), 1, false); err != nil {
		t.Fatal(err)
	}
	m := waitMsg(t, ch, "QoS1 message")
	if m.QoS != 1 || string(m.Payload) != "hello" {
		t.Errorf("got %+v", m)
	}
}

func TestQoSDowngradeToSubscriberLevel(t *testing.T) {
	b := startBroker(t, nil)
	pub := dialClient(t, b, "pub")
	sub := dialClient(t, b, "sub")
	ch := make(chan Message, 1)
	if err := sub.Subscribe("dg/t", 0, func(m Message) { ch <- m }); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("dg/t", []byte("x"), 1, false); err != nil {
		t.Fatal(err)
	}
	if m := waitMsg(t, ch, "downgraded message"); m.QoS != 0 {
		t.Errorf("QoS = %d, want 0", m.QoS)
	}
}

func TestRetainedMessageDelivery(t *testing.T) {
	b := startBroker(t, nil)
	pub := dialClient(t, b, "pub")
	if err := pub.Publish("state/lamp", []byte("on"), 0, true); err != nil {
		t.Fatal(err)
	}
	waitCond(t, func() bool { return b.Stats().Retained == 1 }, "retained message stored")

	late := dialClient(t, b, "late")
	ch := make(chan Message, 1)
	if err := late.Subscribe("state/#", 0, func(m Message) { ch <- m }); err != nil {
		t.Fatal(err)
	}
	m := waitMsg(t, ch, "retained message")
	if !m.Retained || string(m.Payload) != "on" {
		t.Errorf("got %+v", m)
	}

	// Zero-payload retained publish clears it.
	if err := pub.Publish("state/lamp", nil, 0, true); err != nil {
		t.Fatal(err)
	}
	waitCond(t, func() bool { return b.Stats().Retained == 0 }, "retained message cleared")
	late2 := dialClient(t, b, "late2")
	ch2 := make(chan Message, 1)
	if err := late2.Subscribe("state/#", 0, func(m Message) { ch2 <- m }); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-ch2:
		t.Errorf("retained message not cleared: %+v", m)
	case <-time.After(150 * time.Millisecond):
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	b := startBroker(t, nil)
	pub := dialClient(t, b, "pub")
	sub := dialClient(t, b, "sub")
	ch := make(chan Message, 8)
	if err := sub.Subscribe("u/t", 0, func(m Message) { ch <- m }); err != nil {
		t.Fatal(err)
	}
	pub.Publish("u/t", []byte("1"), 0, false)
	waitMsg(t, ch, "first message")
	if err := sub.Unsubscribe("u/t"); err != nil {
		t.Fatal(err)
	}
	pub.Publish("u/t", []byte("2"), 0, false)
	select {
	case m := <-ch:
		t.Errorf("delivery after unsubscribe: %+v", m)
	case <-time.After(150 * time.Millisecond):
	}
}

func TestOverlappingSubscriptionsDeliverOnce(t *testing.T) {
	b := startBroker(t, nil)
	pub := dialClient(t, b, "pub")
	sub := dialClient(t, b, "sub")
	var count int32
	h := func(m Message) { atomic.AddInt32(&count, 1) }
	if err := sub.Subscribe("ov/#", 0, h); err != nil {
		t.Fatal(err)
	}
	if err := sub.Subscribe("ov/+", 0, h); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("ov/x", []byte("x"), 0, false); err != nil {
		t.Fatal(err)
	}
	waitCond(t, func() bool { return atomic.LoadInt32(&count) >= 1 }, "first delivery")
	holds(t, 50*time.Millisecond, func() bool { return atomic.LoadInt32(&count) == 1 },
		"exactly-once delivery across overlapping subscriptions")
}

func TestClientTakeover(t *testing.T) {
	b := startBroker(t, nil)
	c1, err := Dial(b.Addr(), &ClientOptions{ClientID: "same"})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2 := dialClient(t, b, "same")
	_ = c2
	select {
	case <-c1.Done():
	case <-time.After(3 * time.Second):
		t.Fatal("first session not terminated on takeover")
	}
	if st := b.Stats(); st.Connections != 1 {
		t.Errorf("connections = %d, want 1", st.Connections)
	}
}

func TestInProcessPublish(t *testing.T) {
	b := startBroker(t, nil)
	sub := dialClient(t, b, "sub")
	ch := make(chan Message, 1)
	if err := sub.Subscribe("inproc/t", 0, func(m Message) { ch <- m }); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish("inproc/t", []byte("fast"), false); err != nil {
		t.Fatal(err)
	}
	if m := waitMsg(t, ch, "in-process publish"); string(m.Payload) != "fast" {
		t.Errorf("got %+v", m)
	}
	if err := b.Publish("bad/+/topic", nil, false); err == nil {
		t.Error("wildcard in-process publish should fail")
	}
}

func TestBrokerStats(t *testing.T) {
	b := startBroker(t, nil)
	pub := dialClient(t, b, "pub")
	sub := dialClient(t, b, "sub")
	sub.Subscribe("s/t", 0, func(Message) {})
	pub.Publish("s/t", []byte("x"), 0, false)
	waitCond(t, func() bool {
		st := b.Stats()
		return st.PublishesIn >= 1 && st.MessagesOut >= 1
	}, "publish counters")
	st := b.Stats()
	if st.Connections != 2 {
		t.Errorf("connections = %d", st.Connections)
	}
	if st.Subscriptions != 1 {
		t.Errorf("subscriptions = %d", st.Subscriptions)
	}
	if st.PublishesIn < 1 || st.MessagesOut < 1 {
		t.Errorf("counters = %+v", st)
	}
}

func TestKeepAliveTimeoutDisconnects(t *testing.T) {
	b := startBroker(t, &Options{GraceKeepAlive: 1.5})
	// Raw connection that sends CONNECT with 1s keepalive, then goes
	// silent: the broker must drop it after ~1.5s.
	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pkt := &Packet{Type: CONNECT, ClientID: "quiet", CleanSession: true, KeepAliveSec: 1}
	data, _ := pkt.Encode()
	if _, err := conn.Write(data); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPacket(conn); err != nil { // CONNACK
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	if _, err := ReadPacket(conn); err == nil {
		t.Fatal("expected connection drop")
	}
	if elapsed := time.Since(start); elapsed < 1*time.Second {
		t.Errorf("dropped too early: %v", elapsed)
	}
}

func TestRejectsOldProtocolVersion(t *testing.T) {
	b := startBroker(t, nil)
	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pkt := &Packet{Type: CONNECT, ClientID: "old", CleanSession: true}
	data, _ := pkt.Encode()
	data[8] = 3 // MQTT 3.1
	conn.Write(data)
	ack, err := ReadPacket(conn)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Type != CONNACK || ack.ReturnCode != ConnRefusedVersion {
		t.Errorf("got %+v", ack)
	}
}

func TestManyClientsFanOut(t *testing.T) {
	b := startBroker(t, nil)
	const n = 20
	var wg sync.WaitGroup
	received := make(chan string, n)
	for i := 0; i < n; i++ {
		c := dialClient(t, b, fmt.Sprintf("sub-%d", i))
		id := fmt.Sprintf("sub-%d", i)
		if err := c.Subscribe("fan/out", 0, func(m Message) { received <- id }); err != nil {
			t.Fatal(err)
		}
	}
	pub := dialClient(t, b, "pub")
	if err := pub.Publish("fan/out", []byte("go"), 0, false); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i := 0; i < n; i++ {
		select {
		case id := <-received:
			seen[id] = true
		case <-time.After(3 * time.Second):
			t.Fatalf("only %d/%d deliveries", len(seen), n)
		}
	}
	wg.Wait()
	if len(seen) != n {
		t.Errorf("duplicate deliveries: %d unique of %d", len(seen), n)
	}
}

func TestConcurrentPublishers(t *testing.T) {
	b := startBroker(t, nil)
	sub := dialClient(t, b, "sub")
	var count int32
	if err := sub.Subscribe("load/#", 0, func(m Message) { atomic.AddInt32(&count, 1) }); err != nil {
		t.Fatal(err)
	}
	const pubs, each = 5, 40
	var wg sync.WaitGroup
	for i := 0; i < pubs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := dialClient(t, b, fmt.Sprintf("pub-%d", i))
			for j := 0; j < each; j++ {
				// QoS 1 so completion implies broker processing.
				if err := c.Publish(fmt.Sprintf("load/%d", i), []byte("x"), 1, false); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	deadline := time.After(5 * time.Second)
	for atomic.LoadInt32(&count) < pubs*each {
		select {
		case <-deadline:
			t.Fatalf("received %d of %d", atomic.LoadInt32(&count), pubs*each)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func TestBrokerCloseTerminatesSessions(t *testing.T) {
	b := NewBroker(nil)
	if err := b.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(b.Addr(), &ClientOptions{ClientID: "x"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	b.Close()
	select {
	case <-c.Done():
	case <-time.After(3 * time.Second):
		t.Fatal("client not disconnected on broker close")
	}
	// Double close must be safe.
	b.Close()
}

func TestClientPublishAfterClose(t *testing.T) {
	b := startBroker(t, nil)
	c := dialClient(t, b, "x")
	c.Close()
	if err := c.Publish("a/b", []byte("x"), 1, false); err == nil {
		t.Error("publish after close should fail")
	}
}

func TestEmptyClientIDGetsAnonymousSession(t *testing.T) {
	b := startBroker(t, nil)
	c, err := Dial(b.Addr(), &ClientOptions{ClientID: "", KeepAlive: time.Minute})
	// Dial fills in a client id itself, so force an empty one at the
	// wire level instead.
	if err == nil {
		c.Close()
	}
	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	data, _ := (&Packet{Type: CONNECT, ClientID: "", CleanSession: true}).Encode()
	conn.Write(data)
	ack, err := ReadPacket(conn)
	if err != nil || ack.ReturnCode != ConnAccepted {
		t.Fatalf("anon connect: %v %+v", err, ack)
	}
}

func TestKickDisconnectsClient(t *testing.T) {
	b := startBroker(t, nil)
	c := dialClient(t, b, "victim")
	if err := c.Subscribe("k/t", 0, func(Message) {}); err != nil {
		t.Fatal(err)
	}
	if !b.Kick("victim") {
		t.Fatal("kick failed")
	}
	select {
	case <-c.Done():
	case <-time.After(3 * time.Second):
		t.Fatal("kicked client still connected")
	}
	// Session gone, subscriptions dropped.
	deadline := time.Now().Add(3 * time.Second)
	for b.Stats().Connections != 0 || b.Stats().Subscriptions != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("stats after kick: %+v", b.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if b.Kick("victim") {
		t.Error("second kick reported success")
	}
	if b.Kick("never-existed") {
		t.Error("kick of unknown client reported success")
	}
}
