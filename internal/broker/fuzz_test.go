package broker

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadPacket throws arbitrary bytes at the MQTT wire decoder. Two
// properties must hold for every input: the decoder never panics (it
// returns ErrMalformed or an io error instead), and any packet it does
// accept re-encodes to a canonical form that decodes back to the same
// packet — the fixpoint the broker's read/write loops rely on.
func FuzzReadPacket(f *testing.F) {
	// Seed with one valid encoding of every packet shape the broker
	// speaks, plus a few deliberately truncated or oversized frames.
	seeds := []*Packet{
		{Type: CONNECT, ClientID: "digi-runtime", KeepAliveSec: 30, CleanSession: true},
		{Type: CONNACK, ReturnCode: 0, SessionPresent: true},
		{Type: PUBLISH, Topic: "digibox/O1/status", Payload: []byte(`{"triggered":true}`)},
		{Type: PUBLISH, Topic: "a/b", Payload: []byte("x"), QoS: 1, PacketID: 7, Retain: true, Dup: true},
		{Type: PUBACK, PacketID: 7},
		{Type: SUBSCRIBE, PacketID: 2, Filters: []string{"digibox/#", "ctl/+/set"}, QoSs: []byte{0, 1}},
		{Type: SUBACK, PacketID: 2, QoSs: []byte{0, 1}},
		{Type: UNSUBSCRIBE, PacketID: 3, Filters: []string{"digibox/#"}},
		{Type: UNSUBACK, PacketID: 3},
		{Type: PINGREQ},
		{Type: PINGRESP},
		{Type: DISCONNECT},
	}
	for _, p := range seeds {
		data, err := p.Encode()
		if err != nil {
			f.Fatalf("seed %v does not encode: %v", p.Type, err)
		}
		f.Add(data)
		f.Add(data[:len(data)-1]) // truncated body
	}
	f.Add([]byte{0x10, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}) // 5-byte remaining length
	f.Add([]byte{0x00, 0x00})                         // reserved packet type

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadPacket(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrMalformed) && !errors.Is(err, errBadVersion) &&
				!errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		canon, err := p.Encode()
		if err != nil {
			return // decodable but not re-encodable shapes are allowed
		}
		q, err := ReadPacket(bytes.NewReader(canon))
		if err != nil {
			t.Fatalf("canonical re-encoding does not decode: %v\npacket: %+v\nbytes: %x", err, p, canon)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("decode(encode(p)) != p:\n  p = %+v\n  q = %+v", p, q)
		}
	})
}

// validateTopicNameScans is ValidateTopicName as three scans of the
// topic (length, wildcards, NUL), kept as the one-pass version's oracle.
func validateTopicNameScans(topic string) error {
	if topic == "" {
		return fmt.Errorf("mqtt: empty topic")
	}
	if len(topic) > maxTopicLength {
		return fmt.Errorf("mqtt: topic too long (%d bytes)", len(topic))
	}
	if strings.ContainsAny(topic, "+#") {
		return fmt.Errorf("mqtt: wildcards not allowed in topic name %q", topic)
	}
	if strings.ContainsRune(topic, 0) {
		return fmt.Errorf("mqtt: NUL in topic name")
	}
	return nil
}

// FuzzValidateTopicName: the one-pass ValidateTopicName accepts exactly
// what the three-scan version does and refuses the rest with the same
// error text.
func FuzzValidateTopicName(f *testing.F) {
	for _, seed := range []string{
		"", "a", "digibox/O1/status", "a/+/b", "a/#", "+", "#", "a\x00b",
		"a\x00+", "\x00#", "\xff+\x80", "$SYS/x", "//", strings.Repeat("a", maxTopicLength),
		strings.Repeat("a", maxTopicLength+1),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, topic string) {
		got, want := ValidateTopicName(topic), validateTopicNameScans(topic)
		if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
			t.Fatalf("ValidateTopicName(%q) = %v, three scans give %v", topic, got, want)
		}
	})
}
