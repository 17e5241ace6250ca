package broker

import (
	"bufio"
	"net"
	"testing"
	"time"
)

// rawConn is a bare TCP connection to the broker that speaks packets
// the client package never sends.
type rawConn struct {
	t    *testing.T
	conn net.Conn
	r    *bufio.Reader
}

func dialRaw(t *testing.T, b *Broker) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	return &rawConn{t: t, conn: conn, r: bufio.NewReader(conn)}
}

func (c *rawConn) writeRaw(data []byte) {
	c.t.Helper()
	if _, err := c.conn.Write(data); err != nil {
		c.t.Fatal(err)
	}
}

func (c *rawConn) write(p *Packet) {
	c.t.Helper()
	data, err := p.Encode()
	if err != nil {
		c.t.Fatal(err)
	}
	c.writeRaw(data)
}

func (c *rawConn) read() *Packet {
	c.t.Helper()
	p, err := ReadPacket(c.r)
	if err != nil {
		c.t.Fatalf("read: %v", err)
	}
	return p
}

// closed asserts the broker closed the connection without sending a
// byte.
func (c *rawConn) closed() {
	c.t.Helper()
	if n, err := c.r.Read(make([]byte, 1)); n != 0 || err == nil {
		c.t.Fatalf("connection still open (read %d bytes, err %v)", n, err)
	}
}

// connect sends CONNECT and returns the CONNACK.
func (c *rawConn) connect(id string, clean bool) *Packet {
	c.t.Helper()
	c.write(&Packet{Type: CONNECT, ClientID: id, CleanSession: clean, KeepAliveSec: 30})
	ack := c.read()
	if ack.Type != CONNACK || ack.ReturnCode != ConnAccepted {
		c.t.Fatalf("CONNACK = %+v", ack)
	}
	return ack
}

// subscribe sends one SUBSCRIBE and returns the granted QoS.
func (c *rawConn) subscribe(id uint16, filter string, qos byte) byte {
	c.t.Helper()
	c.write(&Packet{Type: SUBSCRIBE, PacketID: id, Filters: []string{filter}, QoSs: []byte{qos}})
	ack := c.read()
	if ack.Type != SUBACK || ack.PacketID != id || len(ack.QoSs) != 1 {
		c.t.Fatalf("SUBACK = %+v", ack)
	}
	return ack.QoSs[0]
}

// TestWireContract pins what the broker does with the MQTT 3.1.1
// features it does not implement: a will closes the connection at
// CONNECT, a QoS-2 PUBLISH closes it, a QoS-2 SUBSCRIBE is granted QoS
// 1 (§3.9.3 lets the server grant less than asked), and a non-clean
// session is served as a clean one.
func TestWireContract(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, b *Broker)
	}{
		{"will flag closes at CONNECT without CONNACK", func(t *testing.T, b *Broker) {
			c := dialRaw(t, b)
			var body []byte
			body = appendString(body, "MQTT")
			body = append(body, 4, 0x02|0x04) // level 3.1.1; clean session + will, will QoS 0
			body = appendUint16(body, 30)
			body = appendString(body, "willing")
			body = appendString(body, "last/will")
			body = appendString(body, "gone")
			c.writeRaw(append(encodeRemainingLength([]byte{byte(CONNECT) << 4}, len(body)), body...))
			c.closed()
		}},
		{"QoS-2 PUBLISH closes the connection", func(t *testing.T, b *Broker) {
			c := dialRaw(t, b)
			c.connect("qos2-pub", true)
			var body []byte
			body = appendString(body, "t/x")
			body = appendUint16(body, 7) // packet id
			body = append(body, "payload"...)
			c.writeRaw(append(encodeRemainingLength([]byte{byte(PUBLISH)<<4 | 2<<1}, len(body)), body...))
			c.closed()
		}},
		{"QoS-2 SUBSCRIBE is granted QoS 1", func(t *testing.T, b *Broker) {
			c := dialRaw(t, b)
			c.connect("qos2-sub", true)
			if got := c.subscribe(1, "t/#", 2); got != 1 {
				t.Fatalf("granted QoS %d, want 1", got)
			}
			if err := b.PublishQoS("", "t/x", []byte("hi"), 1, false); err != nil {
				t.Fatal(err)
			}
			if p := c.read(); p.Type != PUBLISH || p.Topic != "t/x" || p.QoS != 1 {
				t.Fatalf("delivery = %+v, want t/x at QoS 1", p)
			}
		}},
		{"CleanSession=0 is served as a clean session", func(t *testing.T, b *Broker) {
			c := dialRaw(t, b)
			if ack := c.connect("keeper", false); ack.SessionPresent {
				t.Fatal("first CONNACK reports a present session")
			}
			c.subscribe(1, "kept/#", 1)
			c.write(&Packet{Type: DISCONNECT})
			c.closed()

			c = dialRaw(t, b)
			if ack := c.connect("keeper", false); ack.SessionPresent {
				t.Fatal("reconnect CONNACK reports a present session")
			}
			// A probe subscription made after the reconnect: if the old
			// one had survived, its delivery would arrive first.
			c.subscribe(2, "probe/#", 1)
			for _, topic := range []string{"kept/x", "probe/x"} {
				if err := b.PublishQoS("", topic, []byte("x"), 1, false); err != nil {
					t.Fatal(err)
				}
			}
			if p := c.read(); p.Type != PUBLISH || p.Topic != "probe/x" {
				t.Fatalf("first delivery after reconnect = %+v, want probe/x only", p)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, startBroker(t, nil)) })
	}
}
