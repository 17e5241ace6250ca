package broker

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
)

// Stats is a snapshot of broker counters.
type Stats struct {
	Connections   int   `json:"connections"`   // currently connected sessions
	Subscriptions int   `json:"subscriptions"` // live subscriptions across all sessions
	Retained      int   `json:"retained"`      // retained messages held
	PublishesIn   int64 `json:"publishes_in"`  // PUBLISH packets received
	MessagesOut   int64 `json:"messages_out"`  // PUBLISH packets delivered to subscribers
	Dropped       int64 `json:"dropped"`       // messages dropped on slow/full sessions
	Flushes       int64 `json:"flushes"`       // socket writes by session write loops
	FaultDrops    int64 `json:"fault_drops"`   // messages dropped by injected fault rules/partitions
}

// Options configures a Broker.
type Options struct {
	// OutboundQueue bounds each session's outbound message queue.
	// When it is full while the session's consumer is not reading
	// (its socket is full too), QoS 0 messages to that session are
	// dropped (counted in Stats.Dropped); this mirrors broker
	// back-pressure behaviour.
	OutboundQueue int
	// GraceKeepAlive is the multiplier on the negotiated keepalive
	// after which an idle session is terminated. MQTT mandates 1.5.
	GraceKeepAlive float64
	// ConnHook, when set, wraps every accepted connection before the
	// MQTT handshake — an injection point for chaos proxies (latency,
	// corruption) and tests. Closing the returned conn must close the
	// underlying one.
	ConnHook func(net.Conn) net.Conn
	// Obs, when set, exposes the broker's counters as metric families.
	// The counters are the same atomics the broker already maintains,
	// registered as gather-time funcs — enabling metrics adds no cost
	// to the publish hot path.
	Obs *obs.Registry
	// Tracer, when set, opens a publish→deliver span per routed
	// message and closes one leg per subscriber delivery, feeding
	// end-to-end latency histograms. Usually shared testbed-wide.
	Tracer *obs.Tracer
	// SubscribeHook, when set, observes every subscription change on
	// this broker: wire SUBSCRIBE/UNSUBSCRIBE, in-process
	// subscribe/unsubscribe, and session teardown (one call per filter
	// the departing client held). add is true on subscribe. The swarm
	// bridge uses it to maintain its cross-shard wildcard index. Called
	// outside the trie lock; must not block.
	SubscribeHook func(clientID, filter string, add bool)
	// RouteHook, when set, observes every PUBLISH entering route(),
	// before subscription matching (so it fires even when this broker
	// has no local subscriber). Must not block; re-entrant publishes
	// into other brokers are allowed, into this broker are not.
	RouteHook func(from, topic string, payload []byte, qos byte, retain bool)
	// LaneRouteHook is RouteHook with the publish's lane (see
	// PublishLane), called after it. The swarm bridge uses it to
	// forward publishes to sibling shards on their own lane.
	LaneRouteHook func(lane int, from, topic string, payload []byte, qos byte, retain bool)
	// Clock is the time source for fan-out timing and fault-injected
	// delivery delays. Nil means the wall clock; the deterministic
	// replay engine injects its virtual clock so chaos delay faults
	// fire on virtual time.
	Clock clock.Clock
	// Bus, when set, receives a "client" event per wire-session
	// connect and disconnect. Session churn is orders of magnitude
	// rarer than publishes, so this stays off the routing hot path.
	Bus *obs.Bus
}

func (o *Options) withDefaults() Options {
	out := Options{OutboundQueue: 256, GraceKeepAlive: 1.5}
	if o != nil {
		if o.OutboundQueue > 0 {
			out.OutboundQueue = o.OutboundQueue
		}
		if o.GraceKeepAlive > 0 {
			out.GraceKeepAlive = o.GraceKeepAlive
		}
		out.ConnHook = o.ConnHook
		out.Obs = o.Obs
		out.Tracer = o.Tracer
		out.SubscribeHook = o.SubscribeHook
		out.RouteHook = o.RouteHook
		out.LaneRouteHook = o.LaneRouteHook
		out.Clock = o.Clock
		out.Bus = o.Bus
	}
	out.Clock = clock.Or(out.Clock)
	return out
}

// Broker is an MQTT 3.1.1 broker. Create with NewBroker, start with
// Serve or ListenAndServe, stop with Close.
type Broker struct {
	opts Options

	subs     *subTrie
	retained sync.Map // topic -> *Packet (with Retain set)

	// Observability (nil when Options.Obs is unset; all uses are
	// nil-safe no-ops).
	tracer *obs.Tracer
	fanout *obs.Histogram

	// closedFlag mirrors closed as an atomic so the publish hot path
	// can reject publishes into a dead broker without taking mu — the
	// signal the swarm pool's failover journaling rides. The bridge
	// reads it twice per forwarded message, so it sits above the pad,
	// away from the counters a publish writes.
	closedFlag int32

	// lanes holds each publish lane's publish and delivery counts.
	lanes []laneCounts

	mu       sync.Mutex
	sessions map[string]*session
	listener net.Listener
	closed   bool
	wg       sync.WaitGroup

	_           [64]byte
	dropped     int64
	retainCount int64
	retransIn   int64 // DUP PUBLISH packets received (client retransmits)
	connects    int64 // sessions accepted (CONNACK sent)
	disconnects int64 // sessions ended (any cause)

	// flushes counts socket writes by session write loops. Every write
	// loop bumps it, so it sits on a cache line of its own, away from
	// the counters the routing path bumps.
	_       [64]byte
	flushes int64
	_       [56]byte

	// Chaos fault injection (see faults.go). faultsOn is an atomic
	// fast-path flag so fault-free routing never takes faults.mu.
	faultsOn   int32
	faultDrops int64
	faults     faultState
}

// NewBroker returns an idle broker.
func NewBroker(opts *Options) *Broker {
	b := &Broker{
		opts:     opts.withDefaults(),
		subs:     newSubTrie(),
		sessions: map[string]*session{},
		lanes:    make([]laneCounts, obs.Lanes),
	}
	b.tracer = b.opts.Tracer
	if r := b.opts.Obs; r != nil {
		b.bindMetrics(r)
	}
	return b
}

// bindMetrics registers the broker's counters as families in r. The
// funcs read the broker's existing atomics at gather time, so the
// publish path pays nothing for them.
func (b *Broker) bindMetrics(r *obs.Registry) {
	load := func(p *int64) func() float64 {
		return func() float64 { return float64(atomic.LoadInt64(p)) }
	}
	r.CounterFunc("digibox_broker_publishes_total",
		"PUBLISH packets received (wire and in-process)", func() float64 { return float64(b.publishes()) })
	r.CounterFunc("digibox_broker_deliveries_total",
		"PUBLISH packets delivered to subscribers", func() float64 { return float64(b.deliveries()) })
	r.CounterFunc("digibox_broker_dropped_total",
		"messages dropped on slow/full sessions", load(&b.dropped))
	r.CounterFunc("digibox_broker_flushes_total",
		"socket writes by session write loops", load(&b.flushes))
	r.CounterFunc("digibox_broker_fault_drops_total",
		"messages dropped by injected fault rules/partitions", load(&b.faultDrops))
	r.CounterFunc("digibox_broker_retransmits_total",
		"DUP PUBLISH packets received (QoS 1 client retransmits)", load(&b.retransIn))
	r.CounterFunc("digibox_broker_connects_total",
		"client sessions accepted", load(&b.connects))
	r.CounterFunc("digibox_broker_disconnects_total",
		"client sessions ended (clean or broken)", load(&b.disconnects))
	r.GaugeFunc("digibox_broker_connections",
		"currently connected sessions", func() float64 {
			b.mu.Lock()
			defer b.mu.Unlock()
			return float64(len(b.sessions))
		})
	r.GaugeFunc("digibox_broker_subscriptions",
		"live subscriptions across all sessions", func() float64 {
			return float64(b.subs.countSubscriptions())
		})
	r.GaugeFunc("digibox_broker_retained",
		"retained messages held", load(&b.retainCount))
	b.fanout = r.Histogram("digibox_broker_fanout_seconds",
		"time to fan one PUBLISH out to all matching subscribers", nil)
}

// ListenAndServe binds addr (e.g. "127.0.0.1:0") and serves until
// Close. It returns once the listener is bound; serving continues in
// the background. Use Addr for the bound address.
func (b *Broker) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		ln.Close()
		return errors.New("mqtt: broker closed")
	}
	b.listener = ln
	b.mu.Unlock()
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		b.acceptLoop(ln)
	}()
	return nil
}

// Addr returns the bound listener address, or "" before ListenAndServe.
func (b *Broker) Addr() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.listener == nil {
		return ""
	}
	return b.listener.Addr().String()
}

func (b *Broker) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			b.serveConn(conn)
		}()
	}
}

// Close stops the listener and terminates all sessions.
func (b *Broker) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	atomic.StoreInt32(&b.closedFlag, 1)
	ln := b.listener
	sessions := make([]*session, 0, len(b.sessions))
	for _, s := range b.sessions {
		sessions = append(sessions, s)
	}
	b.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, s := range sessions {
		s.terminate()
	}
	b.wg.Wait()
}

// Stats returns a snapshot of broker counters.
func (b *Broker) Stats() Stats {
	b.mu.Lock()
	conns := len(b.sessions)
	b.mu.Unlock()
	return Stats{
		Connections:   conns,
		Subscriptions: b.subs.countSubscriptions(),
		Retained:      int(atomic.LoadInt64(&b.retainCount)),
		PublishesIn:   b.publishes(),
		MessagesOut:   b.deliveries(),
		Dropped:       atomic.LoadInt64(&b.dropped),
		Flushes:       atomic.LoadInt64(&b.flushes),
		FaultDrops:    atomic.LoadInt64(&b.faultDrops),
	}
}

// laneCounts is what one publish lane writes per message: the publishes
// it made into this broker, whose count is also the lane's span-sampling
// sequence, and the deliveries they fanned out to. A slice of them is
// allocated in a 64-byte multiple, which Go's size classes align to 64
// bytes, so each lane's counts fill a cache line of their own.
type laneCounts struct {
	publishesIn atomic.Int64
	messagesOut atomic.Int64
	_           [48]byte
}

// publishes and deliveries sum the lanes' counts.
func (b *Broker) publishes() (n int64) {
	for i := range b.lanes {
		n += b.lanes[i].publishesIn.Load()
	}
	return n
}

func (b *Broker) deliveries() (n int64) {
	for i := range b.lanes {
		n += b.lanes[i].messagesOut.Load()
	}
	return n
}

// session is one connected client.
type session struct {
	broker   *Broker
	conn     net.Conn
	clientID string

	outbound chan *Packet
	packetID atomic.Uint32 // last packet id drawn for an outbound QoS 1 PUBLISH
	// blocked is set while the consumer's socket is full and the write
	// loop waits for it to drain: the one state in which a QoS 0
	// delivery finding the queue full is shed. gate, made by the first
	// sender that waits for room instead, is closed when blocked is set.
	blocked   atomic.Bool
	gate      atomic.Pointer[chan struct{}]
	closeOnce sync.Once
	closedCh  chan struct{}

	keepAlive time.Duration
}

func (b *Broker) serveConn(conn net.Conn) {
	if b.opts.ConnHook != nil {
		conn = b.opts.ConnHook(conn)
	}
	defer conn.Close()
	// The first packet must be CONNECT, within a handshake deadline.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second)) //dbox:allow wallclock -- net.Conn deadlines compare against the kernel's wall clock
	pkt, err := ReadPacket(conn)
	if err != nil {
		if errors.Is(err, errBadVersion) {
			ack, _ := (&Packet{Type: CONNACK, ReturnCode: ConnRefusedVersion}).Encode()
			conn.Write(ack)
		}
		return
	}
	if pkt.Type != CONNECT {
		return
	}
	if pkt.ClientID == "" {
		if !pkt.CleanSession {
			ack, _ := (&Packet{Type: CONNACK, ReturnCode: ConnRefusedIdentifier}).Encode()
			conn.Write(ack)
			return
		}
		pkt.ClientID = fmt.Sprintf("anon-%s", conn.RemoteAddr())
	}

	s := &session{
		broker:   b,
		conn:     conn,
		clientID: pkt.ClientID,
		outbound: make(chan *Packet, b.opts.OutboundQueue),
		closedCh: make(chan struct{}),
	}
	if pkt.KeepAliveSec > 0 {
		s.keepAlive = time.Duration(float64(pkt.KeepAliveSec)*b.opts.GraceKeepAlive) * time.Second
	}

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	if old, ok := b.sessions[s.clientID]; ok {
		// MQTT: a second CONNECT with the same client id takes over.
		b.mu.Unlock()
		old.terminate()
		b.mu.Lock()
	}
	b.sessions[s.clientID] = s
	b.mu.Unlock()

	defer func() {
		b.mu.Lock()
		if b.sessions[s.clientID] == s {
			delete(b.sessions, s.clientID)
		}
		b.mu.Unlock()
		removed := b.subs.removeClient(s.clientID)
		if hook := b.opts.SubscribeHook; hook != nil {
			for _, f := range removed {
				hook(s.clientID, f, false)
			}
		}
		s.terminate()
		atomic.AddInt64(&b.disconnects, 1)
		b.opts.Bus.Publish("client", map[string]any{"client": s.clientID, "state": "disconnected"})
	}()

	ack, err := (&Packet{Type: CONNACK, ReturnCode: ConnAccepted}).Encode()
	if err != nil {
		return
	}
	if _, err := conn.Write(ack); err != nil {
		return
	}
	atomic.AddInt64(&b.connects, 1)
	b.opts.Bus.Publish("client", map[string]any{"client": s.clientID, "state": "connected"})

	go s.writeLoop()
	s.readLoop()
}

func (s *session) terminate() {
	s.closeOnce.Do(func() {
		close(s.closedCh)
		s.conn.Close()
	})
}

// writeBufSize sizes each session's outbound buffered writer: large
// enough to coalesce a burst of status publishes into one syscall,
// small enough that per-session memory stays negligible at 10k+
// sessions.
const writeBufSize = 4096

// sockWriter is the socket side of a session's buffered writer. It
// counts every write the write loop makes (an explicit flush, or
// bufio's own when the buffer fills), and it tells a consumer that
// is slow from a write loop that is merely late: the session is marked
// blocked only once the kernel refuses bytes because the consumer's
// socket is full. A conn with no descriptor to ask (a ConnHook
// wrapper) counts as blocked for the whole of each write.
type sockWriter struct {
	s   *session
	raw syscall.RawConn // nil: no descriptor
	p   []byte          // the unwritten rest of the write in progress
	err error
	try func(fd uintptr) bool // writes p; false when the socket is full
}

func (w *sockWriter) Write(p []byte) (int, error) {
	atomic.AddInt64(&w.s.broker.flushes, 1)
	defer w.s.unblock()
	if w.raw == nil {
		w.s.block()
		return w.s.conn.Write(p)
	}
	w.p, w.err = p, nil
	err := w.raw.Write(w.try)
	n := len(p) - len(w.p)
	w.p = nil
	if err == nil {
		err = w.err
	}
	return n, err
}

// block marks the session's consumer slow and releases every sender
// waiting for room: from here on they shed.
func (s *session) block() {
	s.blocked.Store(true)
	if gate := s.gate.Swap(nil); gate != nil {
		close(*gate)
	}
}

// unblock ends a block. It stores only when blocked: the flag shares a
// cache line with what every delivery to the session reads.
func (s *session) unblock() {
	if s.blocked.Load() {
		s.blocked.Store(false)
	}
}

func (s *session) writeLoop() {
	// Buffered flush-on-idle: drain every packet already queued,
	// writing each into the buffer, and only flush when the queue goes
	// empty. Under high fanout this turns one syscall per packet into
	// one syscall per burst; under light load the queue is empty after
	// each packet so latency is unchanged. Spans are ended after the
	// flush that actually commits their bytes to the socket, keeping
	// e2e latency honest.
	//
	// A batch holding an in-process delivery is corked for one
	// scheduler round before it is flushed: the loop yields once, then
	// drains again. Each in-process publish readies this goroutine next
	// on its P, so without the yield the loop runs between every two
	// publishers of a burst and flushes each status alone. Wire-born
	// batches flush at once: the scheduler cannot see a TCP producer's
	// next packet.
	bw := bufio.NewWriterSize(newSockWriter(s), writeBufSize)
	spans := make([]obs.SpanID, 0, 16)
	write := func(pkt *Packet) bool {
		data, err := pkt.AppendEncode(bw.AvailableBuffer())
		if err != nil {
			return true
		}
		if _, err := bw.Write(data); err != nil {
			s.terminate()
			return false
		}
		if pkt.span != 0 {
			spans = append(spans, pkt.span)
		}
		return true
	}
	for {
		select {
		case pkt := <-s.outbound:
			if !write(pkt) {
				return
			}
			local, corked := pkt.local, false
		drain:
			for {
				select {
				case pkt := <-s.outbound:
					local = local || pkt.local
					if !write(pkt) {
						return
					}
				default:
					if !local || corked {
						break drain
					}
					corked = true
					runtime.Gosched()
				}
			}
			if err := bw.Flush(); err != nil {
				s.terminate()
				return
			}
			for _, id := range spans {
				s.broker.tracer.End(id)
			}
			spans = spans[:0]
		case <-s.closedCh:
			return
		}
	}
}

// send enqueues a packet for the session. A QoS 0 publish that finds
// the queue full is dropped only while the session is blocked on a
// consumer whose socket is full — a slow consumer, which the publisher
// must not wait on. Any other full queue is drained without the
// consumer's help (its write loop is running, runnable or corked), so
// the publish waits for room, or until the session blocks. Anything
// else waits for room (or for the session to end) to preserve acks.
func (s *session) send(pkt *Packet) {
	select {
	case s.outbound <- pkt:
		return
	default:
	}
	if pkt.Type != PUBLISH || pkt.QoS > 0 {
		select {
		case s.outbound <- pkt:
		case <-s.closedCh:
		}
		return
	}
	for {
		gate := s.gate.Load()
		if gate == nil {
			ch := make(chan struct{})
			if !s.gate.CompareAndSwap(nil, &ch) {
				continue
			}
			gate = &ch
		}
		// Checked with the gate held: a block from here on closes it.
		if s.blocked.Load() {
			atomic.AddInt64(&s.broker.dropped, 1)
			return
		}
		select {
		case s.outbound <- pkt:
			return
		case <-*gate:
		case <-s.closedCh:
			return
		}
	}
}

// deliver queues one PUBLISH for the session. A QoS 1 packet takes the
// next non-zero id of the session's own counter: MQTT packet ids are
// scoped to the connection.
func (s *session) deliver(m Message, span obs.SpanID) {
	pkt := &Packet{Type: PUBLISH, Topic: m.Topic, Payload: m.Payload, QoS: m.QoS, Retain: m.Retained, Dup: m.Dup, span: span, local: m.local}
	for pkt.QoS > 0 && pkt.PacketID == 0 {
		pkt.PacketID = uint16(s.packetID.Add(1))
	}
	s.send(pkt)
}

// readBufSize sizes the buffered reader of a session's (and a client's)
// read loop: a typical status PUBLISH arrives in one read(2) instead of
// three (type byte, length, body), and 10k sessions still cost only
// 5 MB next to their 4 KB write buffers. A body larger than the buffer
// is read straight into its own slice.
const readBufSize = 512

func (s *session) readLoop() {
	// Buffered only from here on: the CONNECT was read unbuffered, so
	// nothing a client pipelined behind it has been consumed.
	br := bufio.NewReaderSize(s.conn, readBufSize)
	for {
		if s.keepAlive > 0 {
			s.conn.SetReadDeadline(time.Now().Add(s.keepAlive)) //dbox:allow wallclock -- net.Conn deadlines compare against the kernel's wall clock
		} else {
			s.conn.SetReadDeadline(time.Time{})
		}
		pkt, err := ReadPacket(br)
		if err != nil {
			return
		}
		switch pkt.Type {
		case PUBLISH:
			seq := s.broker.lanes[0].publishesIn.Add(1)
			if pkt.Dup {
				atomic.AddInt64(&s.broker.retransIn, 1)
			}
			s.broker.route(seq, s.clientID, Message{Topic: pkt.Topic, Payload: pkt.Payload, QoS: pkt.QoS, Retained: pkt.Retain})
			if pkt.QoS == 1 {
				s.send(&Packet{Type: PUBACK, PacketID: pkt.PacketID})
			}
		case SUBSCRIBE:
			granted := make([]byte, len(pkt.Filters))
			for i, f := range pkt.Filters {
				q := pkt.QoSs[i]
				if q > 1 {
					q = 1 // downgrade: QoS 2 not supported
				}
				granted[i] = q
				s.broker.subs.subscribe(&subscription{
					clientID: s.clientID,
					filter:   f,
					qos:      q,
					deliver:  s.deliver,
				})
				if hook := s.broker.opts.SubscribeHook; hook != nil {
					hook(s.clientID, f, true)
				}
			}
			// Retained messages are delivered after the SUBACK, but read
			// before it is queued: a publish made once the client saw
			// the SUBACK reaches it live, once, not also as a replay.
			replay := s.broker.retainedFor(pkt.Filters, granted)
			s.send(&Packet{Type: SUBACK, PacketID: pkt.PacketID, QoSs: granted})
			for _, m := range replay {
				s.broker.lanes[0].messagesOut.Add(1)
				s.deliver(m, 0)
			}
		case UNSUBSCRIBE:
			for _, f := range pkt.Filters {
				if s.broker.subs.unsubscribe(s.clientID, f) {
					if hook := s.broker.opts.SubscribeHook; hook != nil {
						hook(s.clientID, f, false)
					}
				}
			}
			s.send(&Packet{Type: UNSUBACK, PacketID: pkt.PacketID})
		case PINGREQ:
			s.send(&Packet{Type: PINGRESP})
		case PUBACK:
			// QoS 1 broker->client ack; at-least-once bookkeeping is
			// the client's concern in this implementation.
		case DISCONNECT:
			return
		default:
			return
		}
	}
}

// route fans a PUBLISH out to matching subscribers and updates the
// retained store. seq is the publish's place in its lane's publishesIn
// count. from identifies the publisher (wire client ID or
// PublishQoS name; "" for anonymous in-process publishes) and scopes
// injected fault rules and partition checks. m.Retained is the
// publish's retain flag.
func (b *Broker) route(seq int64, from string, m Message) {
	// The hooks run before the retained-store update and match
	// short-circuit, so the bridge sees every publish — including ones
	// this shard has no local subscriber for.
	if hook := b.opts.RouteHook; hook != nil {
		hook(from, m.Topic, m.Payload, m.QoS, m.Retained)
	}
	if hook := b.opts.LaneRouteHook; hook != nil {
		hook(int(m.lane), from, m.Topic, m.Payload, m.QoS, m.Retained)
	}
	if m.Retained {
		if len(m.Payload) == 0 {
			if _, loaded := b.retained.LoadAndDelete(m.Topic); loaded {
				atomic.AddInt64(&b.retainCount, -1)
			}
		} else {
			stored := &Packet{Type: PUBLISH, Topic: m.Topic, Payload: m.Payload, QoS: m.QoS, Retain: true}
			if _, loaded := b.retained.Swap(m.Topic, stored); !loaded {
				atomic.AddInt64(&b.retainCount, 1)
			}
		}
	}
	sc := scratchPool.Get().(*matchScratch)
	defer sc.release()
	// One subscription per client (overlapping filters collapse to the
	// highest QoS), in client-id order.
	subs := b.subs.deliverySet(m.Topic, sc)
	if len(subs) == 0 {
		return
	}
	// The span is stamped here — publish time, after the match check
	// so unrouted messages cost nothing — and closed by each
	// subscriber's writeLoop after the socket write: true end-to-end
	// delivery latency. A nil tracer returns 0 and the stamps below
	// are no-ops. Sampling reads this broker's own sequence for the
	// lane, so an unsampled message writes nothing the tracer's other
	// brokers or lanes write.
	sid := b.tracer.StartSeq(int(m.lane), uint64(seq), from, m.Topic)
	out := &b.lanes[m.lane].messagesOut
	// Fan-out timing rides the tracer's sampling interval (every
	// message when no tracer is bound) so unsampled messages skip both
	// clock reads.
	measureFan := b.fanout != nil && (sid != 0 || b.tracer == nil)
	var fanStart time.Time
	if measureFan {
		fanStart = b.opts.Clock.Now()
	}
	faults, qos := b.faultsActive(), m.QoS
	m.Retained = false // live routing clears the retain flag, spec §3.3.1.3
	for _, sub := range subs {
		m.QoS = min(qos, sub.qos)
		if faults {
			act := b.decideFault(from, sub.clientID, m.Topic)
			if act.drop {
				atomic.AddInt64(&b.faultDrops, 1)
				continue
			}
			dup := m
			dup.Dup = m.QoS > 0
			if act.delay > 0 {
				// The timer's goroutine is an in-process publisher.
				deliver, m := sub.deliver, m
				m.local, dup.local = true, true
				b.opts.Clock.AfterFunc(act.delay, func() {
					out.Add(1)
					deliver(m, sid)
					if act.dup {
						out.Add(1)
						deliver(dup, sid)
					}
				})
				continue
			}
			if act.dup {
				out.Add(1)
				sub.deliver(dup, sid)
			}
		}
		out.Add(1)
		sub.deliver(m, sid)
	}
	if measureFan {
		b.fanout.Observe(b.opts.Clock.Since(fanStart).Seconds())
	}
}

// retainedFor returns the stored retained messages matching any of the
// new filters, with the retain flag set, once per topic at min(stored
// QoS, the highest QoS granted to a matching filter) (MQTT 3.1.1
// §3.3.5).
func (b *Broker) retainedFor(filters []string, granted []byte) []Message {
	var out []Message
	b.retained.Range(func(key, value any) bool {
		topic := key.(string)
		stored := value.(*Packet)
		matched, qos := false, byte(0)
		for i, f := range filters {
			if MatchTopic(f, topic) {
				matched, qos = true, max(qos, granted[i])
			}
		}
		if matched {
			out = append(out, Message{Topic: topic, Payload: stored.Payload, QoS: min(stored.QoS, qos), Retained: true})
		}
		return true
	})
	return out
}

// Kick forcibly disconnects a client session, emulating a network
// connectivity fault between a device and the broker (§6 "network
// connectivity between devices"). It reports whether the session
// existed. The client sees a broken connection; its subscriptions are
// dropped with the session (clean-session semantics).
func (b *Broker) Kick(clientID string) bool {
	b.mu.Lock()
	s, ok := b.sessions[clientID]
	b.mu.Unlock()
	if !ok {
		return false
	}
	s.terminate()
	return true
}

// ErrClosed is returned by PublishQoS once the broker has been closed
// (or killed by a chaos shard fault). The swarm pool treats it as the
// "shard is dead" signal and journals the message for redelivery after
// failover instead of losing it.
var ErrClosed = errors.New("mqtt: broker closed")

// PublishQoS injects a message into the broker from within the
// process, without a client connection, under a publisher identity,
// so in-process publishes participate in partition groups and
// From-scoped fault rules the same way wire clients do. Subscribers
// receive it at min(qos, subscription qos), exactly as if a wire
// client had published it. The digi runtime publishes each status
// under the digi's name at QoS 1; the swarm load generator and bridge
// use QoS 1 so deliveries are never shed under back-pressure and loss
// accounting stays exact. It publishes on lane 0.
func (b *Broker) PublishQoS(from, topic string, payload []byte, qos byte, retain bool) error {
	return b.PublishLane(0, from, topic, payload, qos, retain)
}

// PublishLane is PublishQoS on a publish lane, 0 <= lane < obs.Lanes: a
// publisher that runs beside others on its own goroutine (a swarm
// generator worker) passes its own lane, and every count, span and
// bridge forward the message causes is written in that lane's stripe.
// The lane rides on the message to in-process subscribers
// (Message.Lane) and to the LaneRouteHook.
func (b *Broker) PublishLane(lane int, from, topic string, payload []byte, qos byte, retain bool) error {
	if !b.Alive() {
		return ErrClosed
	}
	if err := ValidateTopicName(topic); err != nil {
		return err
	}
	if qos > 1 {
		qos = 1 // QoS 2 not supported; downgrade like SUBSCRIBE does
	}
	seq := b.lanes[lane].publishesIn.Add(1)
	b.route(seq, from, Message{Topic: topic, Payload: payload, QoS: qos, Retained: retain, local: true, lane: uint8(lane)})
	return nil
}

// SubscribeInProcess registers a subscription delivered by direct
// function call instead of an MQTT session: fn runs synchronously on
// the publisher's goroutine (or the fault-delay timer's). This is the
// fast path the swarm pool and its loss accounting ride — no socket,
// no outbound queue, so a QoS 1 delivery cannot be shed. Matching
// retained messages are delivered (with Retained set, at most at
// qos) before SubscribeInProcess returns, mirroring wire SUBACK
// semantics. Subsequent calls with the same clientID and filter
// replace fn.
func (b *Broker) SubscribeInProcess(clientID, filter string, qos byte, fn func(Message)) error {
	if err := b.subscribeInProcess(clientID, filter, qos, fn); err != nil {
		return err
	}
	for _, m := range b.RetainedMatching(filter) {
		m.QoS = min(m.QoS, qos, 1)
		fn(m)
	}
	return nil
}

// UnsubscribeInProcess removes a subscription registered with
// SubscribeInProcess. It reports whether the subscription existed.
func (b *Broker) UnsubscribeInProcess(clientID, filter string) bool {
	ok := b.subs.unsubscribe(clientID, filter)
	if ok {
		if hook := b.opts.SubscribeHook; hook != nil {
			hook(clientID, filter, false)
		}
	}
	return ok
}

// Alive reports whether the broker is still accepting publishes — the
// liveness check the swarm pool and its bridge make. It flips false
// on Close (including a chaos shard-kill) and never recovers; revival
// swaps in a fresh broker.
func (b *Broker) Alive() bool {
	return atomic.LoadInt32(&b.closedFlag) == 0
}

// ResubscribeInProcess is SubscribeInProcess without the retained
// sweep: the swarm pool uses it when it re-anchors an existing
// subscription onto a surviving shard during failover. The client
// never unsubscribed, so takeover must not replay retained state the
// subscriber already holds — that would break exactly-once accounting.
func (b *Broker) ResubscribeInProcess(clientID, filter string, qos byte, fn func(Message)) error {
	return b.subscribeInProcess(clientID, filter, qos, fn)
}

func (b *Broker) subscribeInProcess(clientID, filter string, qos byte, fn func(Message)) error {
	if err := ValidateTopicFilter(filter); err != nil {
		return err
	}
	b.subs.subscribe(&subscription{
		clientID: clientID,
		filter:   filter,
		qos:      min(qos, 1),
		deliver: func(m Message, span obs.SpanID) {
			m.local = false
			fn(m)
			if span != 0 {
				b.tracer.End(span)
			}
		},
	})
	if hook := b.opts.SubscribeHook; hook != nil {
		hook(clientID, filter, true)
	}
	return nil
}

// ExportRetained snapshots every retained message (no filter — "$"
// topics included). Failover re-replication reads a survivor's full
// replica through this to seed a revived shard.
func (b *Broker) ExportRetained() []Message {
	var out []Message
	b.retained.Range(func(key, value any) bool {
		stored := value.(*Packet)
		out = append(out, Message{
			Topic:    key.(string),
			Payload:  stored.Payload,
			QoS:      stored.QoS,
			Retained: true,
		})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Topic < out[j].Topic })
	return out
}

// ImportRetained stores retained messages directly — no routing, no
// subscriber deliveries, no bridge forwards. The swarm pool uses it to
// re-replicate retained state onto a shard joining (or rejoining) the
// pool; silent import is what keeps re-replication from double-
// delivering to live subscribers.
func (b *Broker) ImportRetained(msgs []Message) {
	for _, m := range msgs {
		if len(m.Payload) == 0 {
			continue
		}
		stored := &Packet{Type: PUBLISH, Topic: m.Topic, Payload: m.Payload, QoS: m.QoS, Retain: true}
		if _, loaded := b.retained.Swap(m.Topic, stored); !loaded {
			atomic.AddInt64(&b.retainCount, 1)
		}
	}
}

// RetainedMatching returns the retained messages whose topics match
// filter, with Retained set. SubscribeInProcess replays them to a new
// in-process subscriber; the digi tests read the retained store with
// it.
func (b *Broker) RetainedMatching(filter string) []Message {
	var out []Message
	b.retained.Range(func(key, value any) bool {
		topic := key.(string)
		stored := value.(*Packet)
		if MatchTopic(filter, topic) {
			out = append(out, Message{
				Topic:    topic,
				Payload:  stored.Payload,
				QoS:      stored.QoS,
				Retained: true,
			})
		}
		return true
	})
	return out
}
