package broker

import (
	"fmt"
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rng"
)

func subscribeChan(t *testing.T, c *Client, filter string) chan Message {
	t.Helper()
	ch := make(chan Message, 64)
	if err := c.Subscribe(filter, 0, func(m Message) { ch <- m }); err != nil {
		t.Fatal(err)
	}
	return ch
}

// A DropRate-1 rule suppresses every matching delivery; removing the
// rule restores traffic.
func TestFaultRuleDropsMessages(t *testing.T) {
	b := startBroker(t, nil)
	sub := dialClient(t, b, "sub")
	msgs := subscribeChan(t, sub, "t/#")

	remove := b.AddFault(FaultRule{Topic: "t/#", DropRate: 1})
	for i := 0; i < 5; i++ {
		if err := b.Publish("t/a", []byte(fmt.Sprint(i)), false); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case m := <-msgs:
		t.Fatalf("message delivered through drop rule: %+v", m)
	case <-time.After(100 * time.Millisecond):
	}
	if st := b.Stats(); st.FaultDrops != 5 {
		t.Errorf("FaultDrops = %d, want 5", st.FaultDrops)
	}

	remove()
	if err := b.Publish("t/a", []byte("after"), false); err != nil {
		t.Fatal(err)
	}
	if m := waitMsg(t, msgs, "message after rule removal"); string(m.Payload) != "after" {
		t.Errorf("payload = %q", m.Payload)
	}
}

// A DupRate-1 rule delivers every matching message twice.
func TestFaultRuleDuplicatesMessages(t *testing.T) {
	b := startBroker(t, nil)
	sub := dialClient(t, b, "sub")
	msgs := subscribeChan(t, sub, "t/#")

	defer b.AddFault(FaultRule{Topic: "t/#", DupRate: 1})()
	if err := b.Publish("t/a", []byte("x"), false); err != nil {
		t.Fatal(err)
	}
	waitMsg(t, msgs, "first copy")
	waitMsg(t, msgs, "duplicate copy")
}

// A Delay rule holds matching deliveries back by roughly the delay.
func TestFaultRuleDelaysMessages(t *testing.T) {
	b := startBroker(t, nil)
	sub := dialClient(t, b, "sub")
	msgs := subscribeChan(t, sub, "t/#")

	defer b.AddFault(FaultRule{Topic: "t/#", Delay: 150 * time.Millisecond})()
	start := time.Now()
	if err := b.Publish("t/a", []byte("x"), false); err != nil {
		t.Fatal(err)
	}
	waitMsg(t, msgs, "delayed message")
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Errorf("message arrived after %v, want >= ~150ms", elapsed)
	}
}

// Rules scoped to one receiving client leave other clients untouched.
func TestFaultRuleScopedToClient(t *testing.T) {
	b := startBroker(t, nil)
	lucky := dialClient(t, b, "lucky")
	unlucky := dialClient(t, b, "unlucky")
	luckyMsgs := subscribeChan(t, lucky, "t/#")
	unluckyMsgs := subscribeChan(t, unlucky, "t/#")

	defer b.AddFault(FaultRule{Client: "unlucky", DropRate: 1})()
	if err := b.Publish("t/a", []byte("x"), false); err != nil {
		t.Fatal(err)
	}
	waitMsg(t, luckyMsgs, "message to unscoped client")
	select {
	case m := <-unluckyMsgs:
		t.Fatalf("scoped client received %+v", m)
	case <-time.After(100 * time.Millisecond):
	}
}

// Partition groups block cross-group traffic both ways while
// intra-group and unlisted traffic flows; ClearPartitions heals.
func TestPartitionIsolatesGroups(t *testing.T) {
	b := startBroker(t, nil)
	a := dialClient(t, b, "a")
	c := dialClient(t, b, "c")
	outside := dialClient(t, b, "outside")
	aMsgs := subscribeChan(t, a, "t/#")
	cMsgs := subscribeChan(t, c, "t/#")
	outsideMsgs := subscribeChan(t, outside, "t/#")

	b.SetPartitions([][]string{{"a", "b"}, {"c"}})
	if err := a.Publish("t/x", []byte("from-a"), 0, false); err != nil {
		t.Fatal(err)
	}
	// a's own delivery (same group) and the unlisted client both get it.
	waitMsg(t, aMsgs, "intra-group delivery")
	waitMsg(t, outsideMsgs, "delivery to unlisted client")
	select {
	case m := <-cMsgs:
		t.Fatalf("cross-partition delivery: %+v", m)
	case <-time.After(100 * time.Millisecond):
	}

	b.ClearPartitions()
	if err := a.Publish("t/x", []byte("healed"), 0, false); err != nil {
		t.Fatal(err)
	}
	for {
		m := waitMsg(t, cMsgs, "delivery after heal")
		if string(m.Payload) == "healed" {
			break
		}
	}
}

// A publisher name gives in-process publishes a partitionable identity.
func TestPublishFromParticipatesInPartitions(t *testing.T) {
	b := startBroker(t, nil)
	app := dialClient(t, b, "app")
	msgs := subscribeChan(t, app, "digibox/#")

	b.SetPartitions([][]string{{"S1"}, {"app"}})
	if err := b.PublishQoS("S1", "digibox/S1/status", []byte("cut"), 0, false); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-msgs:
		t.Fatalf("partitioned in-process publish delivered: %+v", m)
	case <-time.After(100 * time.Millisecond):
	}
	// Anonymous publishes are unaffected by partitions.
	if err := b.Publish("digibox/S1/status", []byte("anon"), false); err != nil {
		t.Fatal(err)
	}
	waitMsg(t, msgs, "anonymous publish during partition")
}

// A seeded ~50% drop rate is reproducible: the same seed and delivery
// order drops the same messages.
func TestFaultSamplingIsSeeded(t *testing.T) {
	run := func() []string {
		b := startBroker(t, nil)
		sub := dialClient(t, b, "sub")
		msgs := subscribeChan(t, sub, "t/#")
		b.SetFaultSeed(99)
		defer b.AddFault(FaultRule{Topic: "t/#", DropRate: 0.5})()
		for i := 0; i < 20; i++ {
			if err := b.Publish("t/a", []byte(fmt.Sprint(i)), false); err != nil {
				t.Fatal(err)
			}
		}
		var got []string
		for {
			select {
			case m := <-msgs:
				got = append(got, string(m.Payload))
			case <-time.After(200 * time.Millisecond):
				return got
			}
		}
	}
	first := run()
	second := run()
	if len(first) == 0 || len(first) == 20 {
		t.Fatalf("drop rate 0.5 delivered %d/20 messages", len(first))
	}
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Errorf("seeded sampling diverged:\n%v\n%v", first, second)
	}
}

// With 16 subscribers the seeded fault sequence lands on the same
// (client, payload) pairs every run, because fan-out order is client-id
// order and no longer Go's map order.
func TestFaultSamplingIsSeededAcrossSubscribers(t *testing.T) {
	run := func() []string {
		b := NewBroker(nil)
		defer b.Close()
		var got []string
		for k := 0; k < 16; k++ {
			id := fmt.Sprintf("sub-%02d", k)
			if err := b.SubscribeInProcess(id, "t/#", 0, func(m Message) {
				got = append(got, id+"="+string(m.Payload))
			}); err != nil {
				t.Fatal(err)
			}
		}
		b.SetFaultSeed(99)
		defer b.AddFault(FaultRule{Topic: "t/#", DropRate: 0.5})()
		for i := 0; i < 20; i++ {
			if err := b.Publish("t/a", []byte(fmt.Sprint(i)), false); err != nil {
				t.Fatal(err)
			}
		}
		return got
	}
	first, second := run(), run()
	if len(first) < 16*20/4 || len(first) > 16*20*3/4 {
		t.Fatalf("drop rate 0.5 delivered %d/%d messages", len(first), 16*20)
	}
	if !slices.Equal(first, second) {
		t.Errorf("seeded sampling diverged across runs: %d deliveries starting %v, then %d starting %v",
			len(first), first[:8], len(second), second[:min(8, len(second))])
	}
}

// Rules are consulted in installation order, and removing one leaves
// the survivors in that order. Each row's oracle replays the seeded
// stream over the surviving rules; a drop ends a delivery's draws, so
// any reordering shifts which rule consumes which draw.
func TestFaultRulesFireInInstallationOrder(t *testing.T) {
	rules := []FaultRule{
		{Topic: "t/#", DropRate: 0.3},
		{Topic: "t/#", DupRate: 0.5, Delay: 5 * time.Millisecond},
		{Topic: "t/#", DropRate: 0.6, Delay: 10 * time.Millisecond},
		{Topic: "t/#", DupRate: 0.4},
	}
	oracle := func(live []FaultRule) []faultAction {
		s := rng.New(99, 0)
		out := make([]faultAction, 200)
		for i := range out {
			for _, r := range live {
				if r.DropRate > 0 && s.Float64() < r.DropRate {
					out[i].drop = true
					break
				}
				if r.DupRate > 0 && s.Float64() < r.DupRate {
					out[i].dup = true
				}
				out[i].delay = max(out[i].delay, r.Delay)
			}
		}
		return out
	}
	for _, row := range []struct {
		name   string
		remove []int
	}{
		{"all installed", nil},
		{"middle rule removed", []int{1}},
		{"first rule removed", []int{0}},
		{"first and last removed", []int{0, 3}},
	} {
		t.Run(row.name, func(t *testing.T) {
			b := NewBroker(nil)
			defer b.Close()
			b.SetFaultSeed(99)
			var removers []func()
			for _, r := range rules {
				removers = append(removers, b.AddFault(r))
			}
			var live []FaultRule
			for i, r := range rules {
				if slices.Contains(row.remove, i) {
					removers[i]()
				} else {
					live = append(live, r)
				}
			}
			got := make([]faultAction, 200)
			for i := range got {
				got[i] = b.decideFault("pub", "sub", "t/a")
			}
			if want := oracle(live); !slices.Equal(got, want) {
				t.Errorf("decisions diverge from the installation-order oracle")
			}
			reversed := slices.Clone(live)
			slices.Reverse(reversed)
			if slices.Equal(got, oracle(reversed)) {
				t.Errorf("the oracle cannot tell installation order from its reverse")
			}
		})
	}
}

// ConnHook wraps every accepted connection before the handshake.
func TestConnHookWrapsConnections(t *testing.T) {
	var hooked int32
	b := startBroker(t, &Options{
		ConnHook: func(conn net.Conn) net.Conn {
			atomic.AddInt32(&hooked, 1)
			return conn
		},
	})
	dialClient(t, b, "c1")
	dialClient(t, b, "c2")
	if n := atomic.LoadInt32(&hooked); n != 2 {
		t.Errorf("hook saw %d connections, want 2", n)
	}
}
