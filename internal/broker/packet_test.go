package broker

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, p *Packet) *Packet {
	t.Helper()
	data, err := p.Encode()
	if err != nil {
		t.Fatalf("Encode(%+v): %v", p, err)
	}
	back, err := ReadPacket(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("ReadPacket after Encode(%+v): %v", p, err)
	}
	return back
}

func TestEncodeDecodeConnect(t *testing.T) {
	p := &Packet{Type: CONNECT, ClientID: "sensor-1", KeepAliveSec: 30, CleanSession: true}
	got := roundTrip(t, p)
	if got.ClientID != "sensor-1" || got.KeepAliveSec != 30 || !got.CleanSession {
		t.Errorf("got %+v", got)
	}
}

func TestEncodeDecodeConnack(t *testing.T) {
	p := &Packet{Type: CONNACK, ReturnCode: ConnAccepted, SessionPresent: true}
	got := roundTrip(t, p)
	if got.ReturnCode != ConnAccepted || !got.SessionPresent {
		t.Errorf("got %+v", got)
	}
}

func TestEncodeDecodePublishQoS0(t *testing.T) {
	p := &Packet{Type: PUBLISH, Topic: "home/room/lamp", Payload: []byte(`{"power":"on"}`), Retain: true}
	got := roundTrip(t, p)
	if got.Topic != p.Topic || !bytes.Equal(got.Payload, p.Payload) || !got.Retain || got.QoS != 0 {
		t.Errorf("got %+v", got)
	}
}

func TestEncodeDecodePublishQoS1(t *testing.T) {
	p := &Packet{Type: PUBLISH, Topic: "a/b", Payload: []byte("x"), QoS: 1, PacketID: 77, Dup: true}
	got := roundTrip(t, p)
	if got.PacketID != 77 || got.QoS != 1 || !got.Dup {
		t.Errorf("got %+v", got)
	}
}

func TestEncodeDecodeSubscribe(t *testing.T) {
	p := &Packet{Type: SUBSCRIBE, PacketID: 5, Filters: []string{"a/+", "b/#"}, QoSs: []byte{0, 1}}
	got := roundTrip(t, p)
	if !reflect.DeepEqual(got.Filters, p.Filters) || !bytes.Equal(got.QoSs, p.QoSs) || got.PacketID != 5 {
		t.Errorf("got %+v", got)
	}
}

func TestEncodeDecodeSuback(t *testing.T) {
	p := &Packet{Type: SUBACK, PacketID: 5, QoSs: []byte{1, 0x80}}
	got := roundTrip(t, p)
	if got.PacketID != 5 || !bytes.Equal(got.QoSs, p.QoSs) {
		t.Errorf("got %+v", got)
	}
}

func TestEncodeDecodeUnsubscribe(t *testing.T) {
	p := &Packet{Type: UNSUBSCRIBE, PacketID: 9, Filters: []string{"a/b", "c"}}
	got := roundTrip(t, p)
	if got.PacketID != 9 || !reflect.DeepEqual(got.Filters, p.Filters) {
		t.Errorf("got %+v", got)
	}
}

func TestEncodeDecodeEmptyBodied(t *testing.T) {
	for _, typ := range []PacketType{PINGREQ, PINGRESP, DISCONNECT} {
		got := roundTrip(t, &Packet{Type: typ})
		if got.Type != typ {
			t.Errorf("got %+v", got)
		}
	}
	got := roundTrip(t, &Packet{Type: PUBACK, PacketID: 3})
	if got.PacketID != 3 {
		t.Errorf("puback got %+v", got)
	}
	got = roundTrip(t, &Packet{Type: UNSUBACK, PacketID: 4})
	if got.PacketID != 4 {
		t.Errorf("unsuback got %+v", got)
	}
}

func TestRemainingLengthBoundaries(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 16383, 16384, 2097151, 2097152} {
		var buf []byte
		buf = encodeRemainingLength(buf, n)
		got, err := readRemainingLength(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got != n {
			t.Errorf("n=%d round-tripped to %d", n, got)
		}
	}
}

func TestRemainingLengthTooLong(t *testing.T) {
	if _, err := readRemainingLength(bytes.NewReader([]byte{0x80, 0x80, 0x80, 0x80, 0x01})); err == nil {
		t.Error("5-byte varint should be rejected")
	}
}

func TestDecodeMalformed(t *testing.T) {
	cases := [][]byte{
		{},                                 // empty
		{0x10},                             // CONNECT with no length
		{0x30, 0x02, 0x00},                 // PUBLISH truncated topic length
		{0x30, 0x04, 0x00, 0x05, 'a', 'b'}, // topic shorter than declared
		{0x82, 0x02, 0x00, 0x01},           // SUBSCRIBE with no filters
		{0xC0, 0x01, 0x00},                 // PINGREQ with body
		{0xF0, 0x00},                       // reserved type 15
	}
	for _, data := range cases {
		if _, err := ReadPacket(bytes.NewReader(data)); err == nil {
			t.Errorf("ReadPacket(% x) succeeded, want error", data)
		}
	}
}

func TestDecodeRejectsQoS2(t *testing.T) {
	// PUBLISH with QoS 2 flag bits (0x04).
	data := []byte{0x34, 0x06, 0x00, 0x01, 'a', 0x00, 0x01, 'x'}
	if _, err := ReadPacket(bytes.NewReader(data)); err == nil {
		t.Error("QoS 2 publish should be rejected")
	}
}

func TestDecodeRejectsBadProtocolVersion(t *testing.T) {
	p := &Packet{Type: CONNECT, ClientID: "c", CleanSession: true}
	data, _ := p.Encode()
	// Protocol level byte sits right after the "MQTT" string: byte 8.
	data[8] = 3
	_, err := ReadPacket(bytes.NewReader(data))
	if !errors.Is(err, errBadVersion) {
		t.Errorf("err = %v, want errBadVersion", err)
	}
}

func TestEncodeRejectsWildcardPublish(t *testing.T) {
	p := &Packet{Type: PUBLISH, Topic: "a/+/b"}
	if _, err := p.Encode(); err == nil {
		t.Error("publishing to a wildcard topic should fail")
	}
}

func TestPacketTypeString(t *testing.T) {
	for _, typ := range []PacketType{CONNECT, CONNACK, PUBLISH, PUBACK, SUBSCRIBE, SUBACK, UNSUBSCRIBE, UNSUBACK, PINGREQ, PINGRESP, DISCONNECT} {
		if typ.String() == "" || typ.String()[0] == 'P' && typ.String() == "PacketType(0)" {
			t.Errorf("bad String for %d", typ)
		}
	}
	if PacketType(0).String() != "PacketType(0)" {
		t.Error("unknown type String")
	}
}

// Property: any syntactically valid PUBLISH round-trips exactly.
func TestQuickPublishRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		topic := genTopic(r, false)
		payload := make([]byte, r.Intn(512))
		r.Read(payload)
		p := &Packet{
			Type:    PUBLISH,
			Topic:   topic,
			Payload: payload,
			QoS:     byte(r.Intn(2)),
			Retain:  r.Intn(2) == 0,
		}
		if p.QoS == 1 {
			p.PacketID = uint16(1 + r.Intn(65534))
		}
		data, err := p.Encode()
		if err != nil {
			t.Logf("encode %+v: %v", p, err)
			return false
		}
		back, err := ReadPacket(bytes.NewReader(data))
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		if back.Topic != p.Topic || !bytes.Equal(back.Payload, p.Payload) ||
			back.QoS != p.QoS || back.Retain != p.Retain || back.PacketID != p.PacketID {
			t.Logf("mismatch %+v vs %+v", p, back)
			return false
		}
		// The encoding is canonical — Encode(Decode(b)) == b — and
		// appending it to a buffer in use leaves the prefix alone.
		again, err := back.AppendEncode([]byte("prefix"))
		if err != nil || !bytes.Equal(again, append([]byte("prefix"), data...)) {
			t.Logf("re-encoding %+v: %v\n got %x\nwant prefix+%x", back, err, again, data)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: ReadPacket never panics on random bytes; it returns a
// packet or an error.
func TestQuickDecodeNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on % x: %v", data, r)
			}
		}()
		ReadPacket(bytes.NewReader(data))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func genTopic(r *rand.Rand, allowWild bool) string {
	levels := 1 + r.Intn(4)
	var parts []string
	words := []string{"home", "room", "lamp", "o1", "x", "status", "a-b", "42"}
	for i := 0; i < levels; i++ {
		w := words[r.Intn(len(words))]
		if allowWild && r.Intn(5) == 0 {
			w = "+"
		}
		parts = append(parts, w)
	}
	s := parts[0]
	for _, p := range parts[1:] {
		s += "/" + p
	}
	if allowWild && r.Intn(5) == 0 {
		s += "/#"
	}
	return s
}
