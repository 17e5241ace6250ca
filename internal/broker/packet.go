// Package broker implements an MQTT 3.1.1 message broker and client.
//
// Digibox uses MQTT as the device-to-application message plane (the
// paper deploys EMQX). This package is a from-scratch substitute built
// on the standard library's net package: a TCP broker with sessions,
// QoS 0/1 delivery, retained messages, topic wildcards (+ and #), and
// keepalive enforcement, plus a small client used by mocks and by
// applications under test.
//
// The subset implemented is the portion of MQTT 3.1.1 exercised by IoT
// prototyping workloads. What lies outside it is handled so
// (TestWireContract pins each case):
//   - a CONNECT with the will flag set closes the connection without a
//     CONNACK;
//   - a QoS-2 PUBLISH closes the connection;
//   - a QoS-2 SUBSCRIBE is granted QoS 1, as §3.9.3 allows;
//   - CleanSession=0 with a client ID is accepted as a clean session:
//     the CONNACK reports no session present, and subscriptions do not
//     survive a reconnect.
package broker

import (
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/obs"
)

// PacketType is the MQTT control packet type (spec §2.2.1).
type PacketType byte

const (
	CONNECT     PacketType = 1
	CONNACK     PacketType = 2
	PUBLISH     PacketType = 3
	PUBACK      PacketType = 4
	SUBSCRIBE   PacketType = 8
	SUBACK      PacketType = 9
	UNSUBSCRIBE PacketType = 10
	UNSUBACK    PacketType = 11
	PINGREQ     PacketType = 12
	PINGRESP    PacketType = 13
	DISCONNECT  PacketType = 14
)

func (t PacketType) String() string {
	switch t {
	case CONNECT:
		return "CONNECT"
	case CONNACK:
		return "CONNACK"
	case PUBLISH:
		return "PUBLISH"
	case PUBACK:
		return "PUBACK"
	case SUBSCRIBE:
		return "SUBSCRIBE"
	case SUBACK:
		return "SUBACK"
	case UNSUBSCRIBE:
		return "UNSUBSCRIBE"
	case UNSUBACK:
		return "UNSUBACK"
	case PINGREQ:
		return "PINGREQ"
	case PINGRESP:
		return "PINGRESP"
	case DISCONNECT:
		return "DISCONNECT"
	default:
		return fmt.Sprintf("PacketType(%d)", byte(t))
	}
}

// CONNACK return codes (spec §3.2.2.3).
const (
	ConnAccepted          byte = 0
	ConnRefusedVersion    byte = 1
	ConnRefusedIdentifier byte = 2
	ConnRefusedUnavail    byte = 3
)

// Protocol limits.
const (
	maxRemainingLength = 268435455 // 256 MB - 1, the varint ceiling
	maxTopicLength     = 65535
)

// Packet is a decoded MQTT control packet. Fields are a union across
// the packet types; the relevant subset per type is documented on the
// constructors below.
type Packet struct {
	Type PacketType

	// PUBLISH
	Topic   string
	Payload []byte
	QoS     byte
	Retain  bool
	Dup     bool

	// PUBLISH (QoS 1), PUBACK, SUBSCRIBE, SUBACK, UNSUBSCRIBE, UNSUBACK
	PacketID uint16

	// CONNECT
	ClientID     string
	KeepAliveSec uint16
	CleanSession bool

	// CONNACK
	ReturnCode     byte
	SessionPresent bool

	// SUBSCRIBE / UNSUBSCRIBE
	Filters []string
	QoSs    []byte // requested (SUBSCRIBE) or granted (SUBACK) QoS per filter

	// span carries the publish→deliver span id from routing to the
	// delivering writeLoop. In-process only: it is not encoded on the
	// wire, and 0 means untraced.
	span obs.SpanID
	// local is Message.local carried to the write loop; never encoded.
	local bool
}

// ErrMalformed is wrapped by all decoding errors.
var ErrMalformed = errors.New("mqtt: malformed packet")

func malformed(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
}

// encodeRemainingLength appends the MQTT varint length encoding.
func encodeRemainingLength(buf []byte, n int) []byte {
	for {
		b := byte(n % 128)
		n /= 128
		if n > 0 {
			b |= 0x80
		}
		buf = append(buf, b)
		if n == 0 {
			return buf
		}
	}
}

// readRemainingLength reads the varint remaining-length field.
func readRemainingLength(r io.Reader) (int, error) {
	mult := 1
	value := 0
	var one [1]byte
	for i := 0; i < 4; i++ {
		if _, err := io.ReadFull(r, one[:]); err != nil {
			return 0, err
		}
		b := one[0]
		value += int(b&0x7F) * mult
		if b&0x80 == 0 {
			return value, nil
		}
		mult *= 128
	}
	return 0, malformed("remaining length exceeds 4 bytes")
}

func appendUint16(buf []byte, v uint16) []byte {
	return append(buf, byte(v>>8), byte(v))
}

func appendString(buf []byte, s string) []byte {
	buf = appendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

type reader struct {
	buf []byte
	pos int
}

func (r *reader) remaining() int { return len(r.buf) - r.pos }

func (r *reader) uint16() (uint16, error) {
	if r.remaining() < 2 {
		return 0, malformed("short uint16")
	}
	v := uint16(r.buf[r.pos])<<8 | uint16(r.buf[r.pos+1])
	r.pos += 2
	return v, nil
}

func (r *reader) str() (string, error) {
	n, err := r.uint16()
	if err != nil {
		return "", err
	}
	if r.remaining() < int(n) {
		return "", malformed("short string")
	}
	s := string(r.buf[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s, nil
}

func (r *reader) byte() (byte, error) {
	if r.remaining() < 1 {
		return 0, malformed("short byte")
	}
	b := r.buf[r.pos]
	r.pos++
	return b, nil
}

// Encode serialises the packet into wire format.
func (p *Packet) Encode() ([]byte, error) { return p.AppendEncode(nil) }

// frame validates the packet and returns what AppendEncode needs
// before it writes a byte: the fixed header's flags and the remaining
// length, i.e. the size of everything after the fixed header.
func (p *Packet) frame() (flags byte, n int, err error) {
	n = 2 // packet id, or CONNACK's two bytes
	switch p.Type {
	case CONNACK, PUBACK, UNSUBACK:
	case CONNECT:
		n = 12 + len(p.ClientID) // "MQTT", level, flags, keepalive, id length
	case PUBLISH:
		if p.QoS > 1 {
			return 0, 0, fmt.Errorf("mqtt: QoS %d not supported", p.QoS)
		}
		if err := ValidateTopicName(p.Topic); err != nil {
			return 0, 0, err
		}
		flags = p.QoS << 1
		if p.Retain {
			flags |= 0x01
		}
		if p.Dup {
			flags |= 0x08
		}
		n = 2 + len(p.Topic) + len(p.Payload)
		if p.QoS > 0 {
			n += 2
		}
	case SUBSCRIBE, UNSUBSCRIBE:
		flags = 0x02 // reserved bits per spec
		for _, f := range p.Filters {
			n += 2 + len(f)
		}
		if p.Type == SUBSCRIBE {
			n += len(p.Filters) // one requested-QoS byte per filter
		}
	case SUBACK:
		n += len(p.QoSs)
	case PINGREQ, PINGRESP, DISCONNECT:
		n = 0
	default:
		return 0, 0, fmt.Errorf("mqtt: cannot encode packet type %v", p.Type)
	}
	if n > maxRemainingLength {
		return 0, 0, fmt.Errorf("mqtt: packet too large (%d bytes)", n)
	}
	return flags, n, nil
}

// AppendEncode appends the packet's wire format to dst and returns the
// extended slice, growing dst at most once: the remaining length is
// computed first, so header and body are written in place.
func (p *Packet) AppendEncode(dst []byte) ([]byte, error) {
	flags, n, err := p.frame()
	if err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, 5+n)
	dst = append(dst, byte(p.Type)<<4|flags)
	dst = encodeRemainingLength(dst, n)
	switch p.Type {
	case CONNECT:
		dst = appendString(dst, "MQTT")
		dst = append(dst, 4) // protocol level 3.1.1
		var connectFlags byte
		if p.CleanSession {
			connectFlags |= 0x02
		}
		dst = append(dst, connectFlags)
		dst = appendUint16(dst, p.KeepAliveSec)
		dst = appendString(dst, p.ClientID)
	case CONNACK:
		var ack byte
		if p.SessionPresent {
			ack = 1
		}
		dst = append(dst, ack, p.ReturnCode)
	case PUBLISH:
		dst = appendString(dst, p.Topic)
		if p.QoS > 0 {
			dst = appendUint16(dst, p.PacketID)
		}
		dst = append(dst, p.Payload...)
	case PUBACK, UNSUBACK:
		dst = appendUint16(dst, p.PacketID)
	case SUBSCRIBE:
		dst = appendUint16(dst, p.PacketID)
		for i, f := range p.Filters {
			dst = appendString(dst, f)
			var q byte
			if i < len(p.QoSs) {
				q = p.QoSs[i]
			}
			dst = append(dst, q)
		}
	case SUBACK:
		dst = appendUint16(dst, p.PacketID)
		dst = append(dst, p.QoSs...)
	case UNSUBSCRIBE:
		dst = appendUint16(dst, p.PacketID)
		for _, f := range p.Filters {
			dst = appendString(dst, f)
		}
	}
	return dst, nil
}

// ReadPacket reads and decodes one packet from r.
func ReadPacket(r io.Reader) (*Packet, error) {
	var first [1]byte
	if _, err := io.ReadFull(r, first[:]); err != nil {
		return nil, err
	}
	ptype := PacketType(first[0] >> 4)
	flags := first[0] & 0x0F
	n, err := readRemainingLength(r)
	if err != nil {
		return nil, err
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return decodeBody(ptype, flags, body)
}

func decodeBody(ptype PacketType, flags byte, body []byte) (*Packet, error) {
	p := &Packet{Type: ptype}
	rd := &reader{buf: body}
	switch ptype {
	case CONNECT:
		proto, err := rd.str()
		if err != nil {
			return nil, err
		}
		if proto != "MQTT" {
			return nil, malformed("protocol name %q", proto)
		}
		level, err := rd.byte()
		if err != nil {
			return nil, err
		}
		if level != 4 {
			// Signalled to the caller so the broker can CONNACK with
			// the "unacceptable protocol version" return code.
			return nil, fmt.Errorf("%w: protocol level %d", errBadVersion, level)
		}
		cf, err := rd.byte()
		if err != nil {
			return nil, err
		}
		if cf&0x01 != 0 {
			return nil, malformed("reserved connect flag set")
		}
		if cf&0x04 != 0 {
			return nil, malformed("will flag not supported")
		}
		p.CleanSession = cf&0x02 != 0
		if p.KeepAliveSec, err = rd.uint16(); err != nil {
			return nil, err
		}
		if p.ClientID, err = rd.str(); err != nil {
			return nil, err
		}
	case CONNACK:
		ack, err := rd.byte()
		if err != nil {
			return nil, err
		}
		p.SessionPresent = ack&0x01 != 0
		if p.ReturnCode, err = rd.byte(); err != nil {
			return nil, err
		}
	case PUBLISH:
		p.QoS = (flags >> 1) & 0x03
		p.Retain = flags&0x01 != 0
		p.Dup = flags&0x08 != 0
		if p.QoS > 1 {
			return nil, malformed("QoS %d not supported", p.QoS)
		}
		var err error
		if p.Topic, err = rd.str(); err != nil {
			return nil, err
		}
		if err := ValidateTopicName(p.Topic); err != nil {
			return nil, malformed("%v", err)
		}
		if p.QoS > 0 {
			if p.PacketID, err = rd.uint16(); err != nil {
				return nil, err
			}
			if p.PacketID == 0 {
				return nil, malformed("zero packet id on QoS>0 publish")
			}
		}
		p.Payload = append([]byte(nil), rd.buf[rd.pos:]...)
	case PUBACK, UNSUBACK:
		var err error
		if p.PacketID, err = rd.uint16(); err != nil {
			return nil, err
		}
	case SUBSCRIBE:
		if flags != 0x02 {
			return nil, malformed("bad SUBSCRIBE flags %#x", flags)
		}
		var err error
		if p.PacketID, err = rd.uint16(); err != nil {
			return nil, err
		}
		for rd.remaining() > 0 {
			f, err := rd.str()
			if err != nil {
				return nil, err
			}
			q, err := rd.byte()
			if err != nil {
				return nil, err
			}
			if err := ValidateTopicFilter(f); err != nil {
				return nil, malformed("%v", err)
			}
			p.Filters = append(p.Filters, f)
			p.QoSs = append(p.QoSs, q)
		}
		if len(p.Filters) == 0 {
			return nil, malformed("SUBSCRIBE with no filters")
		}
	case SUBACK:
		var err error
		if p.PacketID, err = rd.uint16(); err != nil {
			return nil, err
		}
		p.QoSs = append([]byte(nil), rd.buf[rd.pos:]...)
	case UNSUBSCRIBE:
		if flags != 0x02 {
			return nil, malformed("bad UNSUBSCRIBE flags %#x", flags)
		}
		var err error
		if p.PacketID, err = rd.uint16(); err != nil {
			return nil, err
		}
		for rd.remaining() > 0 {
			f, err := rd.str()
			if err != nil {
				return nil, err
			}
			p.Filters = append(p.Filters, f)
		}
		if len(p.Filters) == 0 {
			return nil, malformed("UNSUBSCRIBE with no filters")
		}
	case PINGREQ, PINGRESP, DISCONNECT:
		if len(body) != 0 {
			return nil, malformed("%v with body", ptype)
		}
	default:
		return nil, malformed("unknown packet type %d", ptype)
	}
	return p, nil
}

var errBadVersion = errors.New("mqtt: unacceptable protocol version")
