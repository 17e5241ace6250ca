package broker

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/rng"
)

// Message is a received application message.
type Message struct {
	Topic    string
	Payload  []byte
	QoS      byte
	Retained bool
	// Dup marks a retransmitted (or chaos-duplicated) delivery.
	Dup bool
	// local marks a message routed from an in-process publisher
	// (PublishQoS, or a fault-delay timer); wire sessions cork such
	// deliveries for one scheduler round before they flush.
	local bool
	// lane is the publish lane of an in-process publish (PublishLane).
	lane uint8
}

// Lane returns the publish lane the message was published on: the
// lane passed to PublishLane for an in-process delivery, 0 otherwise.
// An in-process subscriber runs on its publisher's goroutine, so a
// count it keeps per lane has one writer.
func (m Message) Lane() int { return int(m.lane) }

// Handler consumes messages delivered to a subscription. Handlers run
// on the client's single dispatch goroutine: a slow handler delays
// later messages for the same client but never corrupts state.
type Handler func(Message)

// ClientOptions configures Dial.
type ClientOptions struct {
	ClientID  string
	KeepAlive time.Duration // 0 disables client keepalive
	// ConnectTimeout bounds the TCP dial plus CONNECT handshake.
	ConnectTimeout time.Duration
	// AckTimeout bounds waiting for SUBACK/UNSUBACK/PUBACK.
	AckTimeout time.Duration
	// PublishRetries is how many times a QoS 1 publish is
	// retransmitted (with the DUP flag, same packet ID) after an ack
	// timeout before failing. 0 means the default (2); negative
	// disables retransmission.
	PublishRetries int
	// AutoReconnect keeps the client alive across connection losses:
	// it redials with capped exponential backoff plus jitter,
	// re-establishes every registered subscription, and flushes
	// publishes buffered while disconnected. Without it a lost
	// connection closes the client (the pre-chaos behaviour).
	AutoReconnect bool
	// ReconnectMin/ReconnectMax bound the reconnect backoff.
	// Defaults: 50ms and 2s.
	ReconnectMin time.Duration
	ReconnectMax time.Duration
	// PublishBuffer bounds the publishes buffered while disconnected
	// (AutoReconnect only); beyond it, QoS 0 messages are discarded
	// and QoS 1 publishes fail. Default 256.
	PublishBuffer int
	// OnConnectionState, when set, receives connection transitions:
	// (false, cause) when the connection is lost, (true, nil) once a
	// (re)connect — including resubscription and buffered-publish
	// flush — completes.
	OnConnectionState func(connected bool, cause error)
	// Dialer overrides the TCP dial (tests, chaos connection hooks).
	Dialer func(addr string, timeout time.Duration) (net.Conn, error)
	// Clock is the time source for keepalive pings, ack timeouts, and
	// reconnect backoff. Nil means the wall clock (clock.System);
	// deterministic harnesses inject a clock.Virtual.
	Clock clock.Clock
	// JitterSeed seeds the reconnect-backoff jitter so a session's
	// reconnect timeline is a pure function of its seed (chaos replays
	// reproduce identical backoff sequences). 0 derives a stable seed
	// from the client ID.
	JitterSeed int64
}

func (o *ClientOptions) withDefaults() ClientOptions {
	out := ClientOptions{
		KeepAlive:      30 * time.Second,
		ConnectTimeout: 5 * time.Second,
		AckTimeout:     5 * time.Second,
		PublishRetries: 2,
		ReconnectMin:   50 * time.Millisecond,
		ReconnectMax:   2 * time.Second,
		PublishBuffer:  256,
	}
	if o != nil {
		if o.ClientID != "" {
			out.ClientID = o.ClientID
		}
		if o.KeepAlive != 0 {
			out.KeepAlive = o.KeepAlive
		}
		if o.ConnectTimeout > 0 {
			out.ConnectTimeout = o.ConnectTimeout
		}
		if o.AckTimeout > 0 {
			out.AckTimeout = o.AckTimeout
		}
		if o.PublishRetries > 0 {
			out.PublishRetries = o.PublishRetries
		}
		if o.PublishRetries < 0 {
			out.PublishRetries = 0
		}
		out.AutoReconnect = o.AutoReconnect
		if o.ReconnectMin > 0 {
			out.ReconnectMin = o.ReconnectMin
		}
		if o.ReconnectMax > 0 {
			out.ReconnectMax = o.ReconnectMax
		}
		if o.PublishBuffer > 0 {
			out.PublishBuffer = o.PublishBuffer
		}
		out.OnConnectionState = o.OnConnectionState
		out.Dialer = o.Dialer
		out.Clock = o.Clock
		out.JitterSeed = o.JitterSeed
	}
	out.Clock = clock.Or(out.Clock)
	return out
}

// errAckTimeout is the retryable "no ack arrived in time" condition.
var errAckTimeout = errors.New("mqtt: ack timeout")

// clientSub is one registered subscription, kept so reconnects can
// re-establish it.
type clientSub struct {
	qos byte
	h   Handler
}

// Client is an MQTT 3.1.1 client. Safe for concurrent use. With
// ClientOptions.AutoReconnect it survives connection loss: it keeps
// its subscriptions registered, buffers publishes, redials with
// backoff, resubscribes, and flushes the buffer.
type Client struct {
	opts ClientOptions
	addr string

	writeMu sync.Mutex // serialises packet writes

	mu        sync.Mutex
	conn      net.Conn // nil while disconnected
	connDone  chan struct{}
	connected bool
	subs      map[string]clientSub // filter -> subscription
	pending   map[uint16]chan *Packet
	nextID    uint16
	buffered  []*Packet // publishes parked while disconnected
	closed    bool
	closeErr  error
	lastErr   error // most recent connection-loss cause

	clk    clock.Clock
	jitter rng.Stream // reconnect backoff draws; guarded by mu

	done chan struct{}
	wg   sync.WaitGroup
}

// clientSeq numbers anonymous clients; a process-local counter instead
// of a wall-clock stamp keeps default client IDs deterministic.
var clientSeq atomic.Uint64

// Dial connects and completes the MQTT handshake. The initial dial is
// not retried; AutoReconnect governs what happens after the first
// successful connect.
func Dial(addr string, opts *ClientOptions) (*Client, error) {
	o := opts.withDefaults()
	if o.ClientID == "" {
		o.ClientID = fmt.Sprintf("dbox-%d", clientSeq.Add(1))
	}
	seed := uint64(o.JitterSeed)
	if seed == 0 {
		seed = rng.Key(o.ClientID)
	}
	c := &Client{
		opts:    o,
		addr:    addr,
		subs:    map[string]clientSub{},
		pending: map[uint16]chan *Packet{},
		clk:     o.Clock,
		jitter:  rng.New(seed, 0),
		done:    make(chan struct{}),
	}
	conn, err := c.handshake()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.conn = conn
	c.connected = true
	c.connDone = make(chan struct{})
	connDone := c.connDone
	c.mu.Unlock()
	c.startLoops(conn, connDone)
	return c, nil
}

// handshake dials and completes CONNECT/CONNACK, returning the ready
// connection.
func (c *Client) handshake() (net.Conn, error) {
	dial := c.opts.Dialer
	if dial == nil {
		dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	conn, err := dial(c.addr, c.opts.ConnectTimeout)
	if err != nil {
		return nil, err
	}
	connect := &Packet{
		Type:         CONNECT,
		ClientID:     c.opts.ClientID,
		CleanSession: true,
		KeepAliveSec: uint16(c.opts.KeepAlive / time.Second),
	}
	data, err := connect.Encode()
	if err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(c.opts.ConnectTimeout)) //dbox:allow wallclock -- net.Conn deadlines compare against the kernel's wall clock
	if _, err := conn.Write(data); err != nil {
		conn.Close()
		return nil, err
	}
	ack, err := ReadPacket(conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("mqtt: handshake: %w", err)
	}
	if ack.Type != CONNACK {
		conn.Close()
		return nil, fmt.Errorf("mqtt: expected CONNACK, got %v", ack.Type)
	}
	if ack.ReturnCode != ConnAccepted {
		conn.Close()
		return nil, fmt.Errorf("mqtt: connection refused (code %d)", ack.ReturnCode)
	}
	conn.SetDeadline(time.Time{})
	return conn, nil
}

func (c *Client) startLoops(conn net.Conn, connDone chan struct{}) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.readLoop(conn)
	}()
	if c.opts.KeepAlive > 0 {
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.pingLoop(connDone)
		}()
	}
}

func (c *Client) write(p *Packet) error {
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	if conn == nil {
		return fmt.Errorf("mqtt: not connected: %w", c.err())
	}
	data, err := p.Encode()
	if err != nil {
		return err
	}
	c.writeMu.Lock()
	_, err = conn.Write(data)
	c.writeMu.Unlock()
	if err != nil {
		c.connLost(conn, err)
	}
	return err
}

func (c *Client) readLoop(conn net.Conn) {
	// Buffered only from here on: the CONNACK was read unbuffered.
	br := bufio.NewReaderSize(conn, readBufSize)
	for {
		pkt, err := ReadPacket(br)
		if err != nil {
			c.connLost(conn, err)
			return
		}
		switch pkt.Type {
		case PUBLISH:
			c.dispatch(pkt)
			if pkt.QoS == 1 {
				c.write(&Packet{Type: PUBACK, PacketID: pkt.PacketID})
			}
		case PUBACK, SUBACK, UNSUBACK:
			c.mu.Lock()
			ch := c.pending[pkt.PacketID]
			delete(c.pending, pkt.PacketID)
			c.mu.Unlock()
			if ch != nil {
				ch <- pkt
			}
		case PINGRESP:
			// keepalive satisfied
		default:
			// Ignore everything else; 3.1.1 clients never receive
			// CONNECT/SUBSCRIBE.
		}
	}
}

func (c *Client) dispatch(pkt *Packet) {
	c.mu.Lock()
	var h Handler
	for filter, sub := range c.subs {
		if MatchTopic(filter, pkt.Topic) {
			h = sub.h
			break
		}
	}
	c.mu.Unlock()
	if h != nil {
		h(Message{Topic: pkt.Topic, Payload: pkt.Payload, QoS: pkt.QoS, Retained: pkt.Retain, Dup: pkt.Dup})
	}
}

// pingLoop sends keepalive pings until its connection ends (connDone)
// or the client closes.
func (c *Client) pingLoop(connDone chan struct{}) {
	interval := c.opts.KeepAlive / 2
	if interval < time.Second {
		interval = time.Second
	}
	t := c.clk.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C():
			if err := c.write(&Packet{Type: PINGREQ}); err != nil {
				return
			}
		case <-connDone:
			return
		case <-c.done:
			return
		}
	}
}

// connLost handles the end of one connection: it fails in-flight
// awaits with the real cause, then either closes the client (default)
// or hands off to the reconnect loop (AutoReconnect).
func (c *Client) connLost(conn net.Conn, err error) {
	c.mu.Lock()
	if c.closed || c.conn != conn {
		// Already closed, or a stale connection's loop reporting after
		// a reconnect — nothing to do.
		c.mu.Unlock()
		return
	}
	c.conn = nil
	c.connected = false
	c.lastErr = err
	connDone := c.connDone
	c.connDone = nil
	pend := c.pending
	c.pending = map[uint16]chan *Packet{}
	auto := c.opts.AutoReconnect
	c.mu.Unlock()
	if connDone != nil {
		close(connDone)
	}
	conn.Close()
	for _, ch := range pend {
		close(ch)
	}
	if fn := c.opts.OnConnectionState; fn != nil {
		fn(false, err)
	}
	if !auto {
		c.permanentClose(fmt.Errorf("mqtt: connection lost: %w", err))
		return
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.reconnectLoop()
	}()
}

// reconnectLoop redials with capped exponential backoff plus jitter,
// then resubscribes every registered filter and flushes buffered
// publishes. It exits on success (a later loss starts a new loop) or
// when the client closes.
func (c *Client) reconnectLoop() {
	backoff := c.opts.ReconnectMin
	for {
		// Full jitter: the wait is uniform in (0, backoff], where
		// backoff is the capped exponential term — so a fleet of
		// clients kicked at once spreads its reconnects across the
		// whole window instead of stacking up at the cap. The jitter
		// source is seeded (per client, or from the session seed), so
		// replays walk the same backoff sequence.
		c.mu.Lock()
		wait := time.Duration(1 + c.jitter.Int63n(int64(backoff)))
		c.mu.Unlock()
		select {
		case <-c.done:
			return
		case <-c.clk.After(wait): //dbox:allow wallclock -- the client has a done channel, not a context, to wait beside
		}
		conn, err := c.handshake()
		if err != nil {
			c.mu.Lock()
			c.lastErr = err
			c.mu.Unlock()
			backoff *= 2
			if backoff > c.opts.ReconnectMax {
				backoff = c.opts.ReconnectMax
			}
			continue
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			conn.Close()
			return
		}
		c.conn = conn
		c.connected = true
		c.connDone = make(chan struct{})
		connDone := c.connDone
		type sub struct {
			filter string
			qos    byte
		}
		subs := make([]sub, 0, len(c.subs))
		for f, s := range c.subs {
			subs = append(subs, sub{f, s.qos})
		}
		sort.Slice(subs, func(i, j int) bool { return subs[i].filter < subs[j].filter })
		buffered := c.buffered
		c.buffered = nil
		c.mu.Unlock()
		c.startLoops(conn, connDone)
		// Re-establish subscriptions. SUBACKs are consumed by the read
		// loop; these filters were accepted before, so the acks are
		// not awaited. A write failure here means the new connection
		// already broke — its connLost spawns the next reconnect loop.
		for _, s := range subs {
			pkt := &Packet{Type: SUBSCRIBE, PacketID: c.bareID(),
				Filters: []string{s.filter}, QoSs: []byte{s.qos}}
			if err := c.write(pkt); err != nil {
				return
			}
		}
		for _, pkt := range buffered {
			if pkt.QoS == 0 {
				if err := c.write(pkt); err != nil {
					return
				}
				continue
			}
			if err := c.publish1(pkt); err != nil {
				return
			}
		}
		if fn := c.opts.OnConnectionState; fn != nil {
			fn(true, nil)
		}
		return
	}
}

// permanentClose finishes the client for good.
func (c *Client) permanentClose(err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.closeErr = err
	conn := c.conn
	c.conn = nil
	c.connected = false
	connDone := c.connDone
	c.connDone = nil
	pend := c.pending
	c.pending = map[uint16]chan *Packet{}
	c.buffered = nil
	c.mu.Unlock()
	close(c.done)
	if connDone != nil {
		close(connDone)
	}
	if conn != nil {
		conn.Close()
	}
	for _, ch := range pend {
		close(ch)
	}
}

func (c *Client) allocID() (uint16, chan *Packet) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		c.nextID++
		if c.nextID == 0 {
			c.nextID = 1
		}
		if _, busy := c.pending[c.nextID]; !busy {
			ch := make(chan *Packet, 1)
			c.pending[c.nextID] = ch
			return c.nextID, ch
		}
	}
}

// bareID allocates a packet ID without registering an ack channel;
// the matching ack is consumed and discarded by the read loop.
func (c *Client) bareID() uint16 {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		c.nextID++
		if c.nextID == 0 {
			c.nextID = 1
		}
		if _, busy := c.pending[c.nextID]; !busy {
			return c.nextID
		}
	}
}

// await waits for the ack on ch. On timeout it returns errAckTimeout,
// leaving the pending entry in place when keep is set (so a QoS 1
// retransmission reuses the packet ID); otherwise the entry is
// discarded. A closed channel or client yields the real
// connection-loss cause.
func (c *Client) await(id uint16, ch chan *Packet, want PacketType, keep bool) (*Packet, error) {
	// Deliberately the wall clock, like the net.Conn deadlines: the ack
	// guards a real network round-trip, whose latency does not compress
	// with the scenario clock. On a time-compressed testbed a clocked
	// wait would expire in microseconds of wall time — long before any
	// real broker could answer. Stopped on return, so an acked exchange
	// leaves no timer behind for the rest of AckTimeout.
	timeout := time.NewTimer(c.opts.AckTimeout) //dbox:allow wallclock -- guards a real network round-trip, which the scenario clock does not compress
	defer timeout.Stop()
	select {
	case pkt, ok := <-ch:
		if !ok {
			return nil, fmt.Errorf("mqtt: connection lost while waiting for %v: %w", want, c.err())
		}
		if pkt.Type != want {
			return nil, fmt.Errorf("mqtt: expected %v, got %v", want, pkt.Type)
		}
		return pkt, nil
	case <-timeout.C:
		if !keep {
			c.discardPending(id)
		}
		return nil, fmt.Errorf("%w waiting for %v", errAckTimeout, want)
	case <-c.done:
		return nil, fmt.Errorf("mqtt: client closed while waiting for %v: %w", want, c.err())
	}
}

func (c *Client) discardPending(id uint16) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// bufferPublish parks a publish for the next reconnect flush. It
// reports false when buffering does not apply (client closed, not in
// auto-reconnect mode, or currently connected).
func (c *Client) bufferPublish(pkt *Packet) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || !c.opts.AutoReconnect || c.connected {
		return false
	}
	if len(c.buffered) >= c.opts.PublishBuffer {
		if pkt.QoS == 0 {
			// Fire-and-forget overflow is silently shed, like a full
			// broker queue would.
			return true
		}
		return false
	}
	c.buffered = append(c.buffered, pkt)
	return true
}

// Publish sends an application message. QoS 1 blocks until the broker
// acknowledges (at-least-once), retransmitting with the DUP flag on
// ack timeout; QoS 0 is fire-and-forget. While disconnected with
// AutoReconnect, the message is buffered and flushed on reconnect.
func (c *Client) Publish(topic string, payload []byte, qos byte, retain bool) error {
	if qos > 1 {
		return fmt.Errorf("mqtt: QoS %d not supported", qos)
	}
	pkt := &Packet{Type: PUBLISH, Topic: topic, Payload: payload, QoS: qos, Retain: retain}
	if c.bufferPublish(pkt) {
		return nil
	}
	if qos == 0 {
		return c.write(pkt)
	}
	return c.publish1(pkt)
}

// publish1 runs the QoS 1 at-least-once exchange: send, await PUBACK,
// retransmit with DUP on timeout. A connection loss mid-exchange
// buffers the message for the reconnect flush when auto-reconnect is
// on.
func (c *Client) publish1(pkt *Packet) error {
	id, ch := c.allocID()
	pkt.PacketID = id
	attempts := c.opts.PublishRetries + 1
	var lastErr error
	for i := 0; i < attempts; i++ {
		pkt.Dup = i > 0
		if err := c.write(pkt); err != nil {
			c.discardPending(id)
			if c.bufferPublish(pkt) {
				return nil
			}
			return err
		}
		_, err := c.await(id, ch, PUBACK, true)
		if err == nil {
			return nil
		}
		if errors.Is(err, errAckTimeout) {
			lastErr = err
			continue
		}
		// Connection lost or client closed: pending already cleared.
		if c.bufferPublish(pkt) {
			return nil
		}
		return err
	}
	c.discardPending(id)
	return lastErr
}

// Subscribe registers a handler for a topic filter and blocks until
// the broker acknowledges. Retained messages matching the filter are
// delivered asynchronously after subscription. While disconnected
// with AutoReconnect the registration succeeds immediately and the
// subscription is established on reconnect.
func (c *Client) Subscribe(filter string, qos byte, h Handler) error {
	if err := ValidateTopicFilter(filter); err != nil {
		return err
	}
	if qos > 1 {
		qos = 1
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return c.err()
	}
	c.subs[filter] = clientSub{qos: qos, h: h}
	deferred := !c.connected && c.opts.AutoReconnect
	c.mu.Unlock()
	if deferred {
		return nil
	}
	id, ch := c.allocID()
	pkt := &Packet{Type: SUBSCRIBE, PacketID: id, Filters: []string{filter}, QoSs: []byte{qos}}
	if err := c.write(pkt); err != nil {
		if c.subscribeDeferred() {
			return nil
		}
		return err
	}
	ack, err := c.await(id, ch, SUBACK, false)
	if err != nil {
		if c.subscribeDeferred() {
			return nil
		}
		return err
	}
	if len(ack.QoSs) != 1 || ack.QoSs[0] == 0x80 {
		c.mu.Lock()
		delete(c.subs, filter)
		c.mu.Unlock()
		return errors.New("mqtt: subscription rejected")
	}
	return nil
}

// subscribeDeferred reports whether a failed subscribe exchange can be
// left to the reconnect loop (which resubscribes every registered
// filter).
func (c *Client) subscribeDeferred() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.opts.AutoReconnect && !c.closed && !c.connected
}

// IsConnected reports whether the client currently has a live
// connection.
//
//dbox:allow deadcode -- this package's reconnect tests poll it
func (c *Client) IsConnected() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.connected
}

// Close sends DISCONNECT and tears the client down for good; the
// reconnect loop, if any, stops.
func (c *Client) Close() error {
	c.write(&Packet{Type: DISCONNECT})
	c.permanentClose(errors.New("mqtt: client closed"))
	c.wg.Wait()
	return nil
}

// Done is closed when the client terminates for good. With
// AutoReconnect, individual connection losses do not close it — only
// Close does; use OnConnectionState to observe connectivity.
//
//dbox:allow deadcode -- the root facade test and this package's tests wait on it
func (c *Client) Done() <-chan struct{} { return c.done }

// err returns the most specific known cause of the client's current
// state: the close cause, else the latest connection-loss error.
func (c *Client) err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closeErr != nil {
		return c.closeErr
	}
	if c.lastErr != nil {
		return c.lastErr
	}
	return errors.New("mqtt: client closed")
}
