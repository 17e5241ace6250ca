package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/broker"
)

const (
	wireTopics   = 1000
	wirePayload  = 64
	wireSessions = 64 // in-process sessions of wire_fanout
)

// wireWorkload is wire_pubsub and, with fanout set, wire_fanout: a
// standalone broker, one publisher and one subscriber client on
// loopback, QoS 1. One operation publishes, then waits for the PUBACK
// and for the subscriber's callback.
type wireWorkload struct {
	seed   int64
	tr     *tracer
	fanout bool

	br       *broker.Broker
	pub, sub *broker.Client
	topics   []string
	order    []int
	payload  []byte // [0:8] sequence number, [8:] seed bytes
	tail     []byte // payload[8:], never written after setup
	seq      uint64
	timer    *time.Timer

	// expect is the sequence number of the operation in flight; the
	// callbacks on the broker's and the subscriber's goroutines check
	// deliveries against it.
	expect    atomic.Uint64
	delivered chan time.Time // wire subscriber callback times
	inproc    atomic.Int64   // in-process deliveries of the right message
	wrong     atomic.Int64   // deliveries of anything else

	// Marks of the traced operation in flight, written on the broker's
	// goroutine.
	hookAt atomic.Int64 // RouteHook fired
	fanAt  atomic.Int64 // latest in-process callback returned
}

func (w *wireWorkload) setup() error {
	rng := rand.New(rand.NewSource(w.seed))
	w.payload = make([]byte, wirePayload)
	rng.Read(w.payload)
	w.tail = append([]byte(nil), w.payload[8:]...)
	w.order = rng.Perm(wireTopics)
	w.topics = make([]string, wireTopics)
	for i := range w.topics {
		w.topics[i] = fmt.Sprintf("bench/dev-%d/status", i)
	}
	w.delivered = make(chan time.Time, 4) // one outstanding operation; room for a straggler after a timeout
	w.timer = time.NewTimer(time.Hour)
	w.timer.Stop()

	opts := &broker.Options{}
	if w.tr != nil {
		opts.RouteHook = func(string, string, []byte, byte, bool) {
			if w.tr.active() {
				w.hookAt.Store(w.tr.now())
			}
		}
	}
	w.br = broker.NewBroker(opts)
	if err := w.br.ListenAndServe("127.0.0.1:0"); err != nil {
		return err
	}
	if w.fanout {
		for k := 0; k < wireSessions; k++ {
			id := fmt.Sprintf("inproc-%d", k)
			for _, filter := range []string{"bench/#", "bench/+/status"} {
				if err := w.br.SubscribeInProcess(id, filter, 1, w.onInProcess); err != nil {
					return err
				}
			}
		}
	}
	copts := func(id string) *broker.ClientOptions {
		return &broker.ClientOptions{ClientID: id, AckTimeout: opTimeout, PublishRetries: -1}
	}
	var err error
	if w.sub, err = broker.Dial(w.br.Addr(), copts("bench-sub")); err != nil {
		return err
	}
	if err := w.sub.Subscribe("bench/+/status", 1, w.onWire); err != nil {
		return err
	}
	w.pub, err = broker.Dial(w.br.Addr(), copts("bench-pub"))
	return err
}

func (w *wireWorkload) matches(payload []byte) bool {
	return len(payload) == wirePayload &&
		binary.BigEndian.Uint64(payload) == w.expect.Load() &&
		bytes.Equal(payload[8:], w.tail)
}

func (w *wireWorkload) onWire(m broker.Message) {
	if !w.matches(m.Payload) {
		w.wrong.Add(1)
		return
	}
	w.delivered <- time.Now()
}

func (w *wireWorkload) onInProcess(m broker.Message) {
	if !w.matches(m.Payload) {
		w.wrong.Add(1)
		return
	}
	w.inproc.Add(1)
	if w.tr.active() {
		w.fanAt.Store(w.tr.now())
	}
}

func (w *wireWorkload) op() (time.Duration, int, error) {
	w.seq++
	binary.BigEndian.PutUint64(w.payload, w.seq)
	w.expect.Store(w.seq)
	topic := w.topics[w.order[w.seq%wireTopics]]
	inprocBefore := w.inproc.Load()

	t0 := time.Now()
	if err := w.pub.Publish(topic, w.payload, 1, false); err != nil {
		return 0, 0, err
	}
	acked := time.Now()
	var at time.Time
	select {
	case at = <-w.delivered:
	default:
		w.timer.Reset(opTimeout)
		select {
		case at = <-w.delivered:
			w.timer.Stop()
		case <-w.timer.C:
			return 0, 0, errors.New("no delivery to the wire subscriber")
		}
	}
	if w.fanout {
		// In-process callbacks run inside route(), before the PUBACK
		// is queued, so all of them are in once Publish returns.
		if got := w.inproc.Load() - inprocBefore; got != wireSessions {
			return 0, 0, fmt.Errorf("%d of %d in-process deliveries", got, wireSessions)
		}
	}
	if w.tr.active() && w.tr.keep() {
		w.trace(t0, at, acked)
	}
	return at.Sub(t0), 1, nil
}

// trace files the operation's span tree: client.publish ⊃ {ingress
// (call → RouteHook), egress (RouteHook → wire handler) ⊃ route_fanout
// (RouteHook → last in-process callback), ack (handler → Publish
// returns)}.
func (w *wireWorkload) trace(t0, deliveredAt, ackedAt time.Time) {
	start, hook := w.tr.at(t0), w.hookAt.Load()
	deliver, ack := w.tr.at(deliveredAt), w.tr.at(ackedAt)
	end := max(deliver, ack)
	tree := []span{
		{ID: 1, Name: "wire.publish", Start: start, End: end},
		{ID: 2, Parent: 1, Name: "wire.ingress", Start: start, End: hook},
		{ID: 3, Parent: 1, Name: "wire.egress", Start: hook, End: deliver},
		{ID: 4, Parent: 1, Name: "wire.ack", Start: deliver, End: end},
	}
	if w.fanout {
		tree = append(tree, span{ID: 5, Parent: 3, Name: "wire.route_fanout", Start: hook, End: w.fanAt.Load()})
	}
	w.tr.op(tree)
}

func (w *wireWorkload) verify() error {
	if n := w.wrong.Load(); n > 0 {
		return fmt.Errorf("%d deliveries carried a wrong payload", n)
	}
	st := w.br.Stats()
	if st.Dropped > 0 {
		return fmt.Errorf("broker dropped %d messages", st.Dropped)
	}
	// Every publish since set-up, warm-up included, reached the wire
	// subscriber and — under fanout — each of the 64 sessions once.
	per := int64(1)
	if w.fanout {
		per += wireSessions
	}
	if st.MessagesOut != st.PublishesIn*per {
		return fmt.Errorf("broker delivered %d messages for %d publishes, want %d each", st.MessagesOut, st.PublishesIn, per)
	}
	return nil
}

func (w *wireWorkload) layers(m map[string]metric) {
	st := w.br.Stats()
	m["broker.publishes_in"] = metric{float64(st.PublishesIn), "count"}
	m["broker.messages_out"] = metric{float64(st.MessagesOut), "count"}
	m["broker.dropped"] = metric{float64(st.Dropped), "count"}
}

func (w *wireWorkload) teardown() {
	if w.pub != nil {
		w.pub.Close()
	}
	if w.sub != nil {
		w.sub.Close()
	}
	if w.br != nil {
		w.br.Close()
	}
	w.pub, w.sub, w.br = nil, nil, nil
}
