package trace

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"
)

// The record codec: the exact binary form a Log stores each record in.
// A stored record is its TS as a zigzag varint followed by its body;
// Seq is not stored, because it is the record's index plus one. The
// body is a kind byte, a bit set of the fields that are present, each
// present string field (in text() order), then Fields, Sets and
// Deletes. Strings are a uvarint length and their bytes. Fields and
// Sets are maps (see appendMap); Deletes is a uvarint count plus one
// (0 keeps a nil slice nil) and its strings.
//
// A value is one tag byte and its payload. The tags cover every type a
// model document or a harness record holds, and each reads back as the
// type it was written as: an int stays an int, an int64 beyond 2^53
// stays exact, a whole-number float64 stays a float64, and a nil map or
// slice stays nil where an empty one stays empty. Any other type is
// kept as its JSON text and reads back as what encoding/json decodes
// that text to with UseNumber, so it marshals to the same JSON, which
// is all an archive or a digest sees of it.

const (
	tagNil = iota
	tagFalse
	tagTrue
	tagInt     // zigzag varint
	tagInt64   // zigzag varint
	tagFloat64 // 8 bytes, little-endian IEEE 754 bits
	tagString
	tagSlice // []any: uvarint count plus one, then the values
	tagMap   // map[string]any: uvarint count plus one, then key/value pairs
	tagJSON  // any other type: its JSON text, as a string
)

// kinds are the record kinds a body stores as one byte (their index
// plus one); 0 is followed by any other kind's name.
var kinds = [...]Kind{KindEvent, KindAction, KindMessage, KindViolation, KindFault, KindSpan, KindMark}

// text returns the record's string fields in the order a body holds
// them; bit i of a body's presence bits is set when text()[i] is not
// empty.
func (r *Record) text() [8]*string {
	return [8]*string{&r.Name, &r.Type, &r.Topic, &r.Payload, &r.Direction, &r.Property, &r.Detail, &r.Fault}
}

// The presence bits of the non-string fields, which follow the strings.
const (
	hasFields = 1 << (8 + iota)
	hasSets
	hasDeletes
)

var errCorrupt = errors.New("trace: corrupt record encoding")

// appendBody appends r's encoding without Seq and TS to b.
func appendBody(b []byte, r *Record) []byte {
	k := 0
	for i, kind := range kinds {
		if r.Kind == kind {
			k = i + 1
			break
		}
	}
	b = append(b, byte(k))
	if k == 0 {
		b = appendString(b, string(r.Kind))
	}
	text := r.text()
	var bits uint64
	for i, s := range text {
		if *s != "" {
			bits |= 1 << i
		}
	}
	if r.Fields != nil {
		bits |= hasFields
	}
	if r.Sets != nil {
		bits |= hasSets
	}
	if r.Deletes != nil {
		bits |= hasDeletes
	}
	b = binary.AppendUvarint(b, bits)
	for i, s := range text {
		if bits&(1<<i) != 0 {
			b = appendString(b, *s)
		}
	}
	if bits&hasFields != 0 {
		b = appendMap(b, r.Fields)
	}
	if bits&hasSets != 0 {
		b = appendMap(b, r.Sets)
	}
	if bits&hasDeletes != 0 {
		b = binary.AppendUvarint(b, uint64(len(r.Deletes))+1)
		for _, s := range r.Deletes {
			b = appendString(b, s)
		}
	}
	return b
}

// appendSpanBody appends the body of a span record, which appendBody
// writes for Record{Kind: KindSpan, Name: name, Topic: topic, Fields:
// {"elapsed_ns": int64(elapsed)}}, with no Record or map.
func appendSpanBody(b []byte, name, topic string, elapsed time.Duration) []byte {
	var bits uint64 = hasFields
	if name != "" {
		bits |= 1 << 0 // text()[0], Name
	}
	if topic != "" {
		bits |= 1 << 2 // text()[2], Topic
	}
	b = binary.AppendUvarint(append(b, spanKind), bits)
	if name != "" {
		b = appendString(b, name)
	}
	if topic != "" {
		b = appendString(b, topic)
	}
	b = binary.AppendUvarint(b, 1+1) // one field
	b = appendString(b, "elapsed_ns")
	return binary.AppendVarint(append(b, tagInt64), int64(elapsed))
}

// spanKind is KindSpan's kind byte.
const spanKind = 6

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendMap appends a map's count plus one (0 for a nil map) and its
// key/value pairs, in the map's iteration order.
func appendMap(b []byte, m map[string]any) []byte {
	if m == nil {
		return binary.AppendUvarint(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(m))+1)
	for k, v := range m {
		b = appendString(b, k)
		b = appendValue(b, v)
	}
	return b
}

func appendValue(b []byte, v any) []byte {
	switch t := v.(type) {
	case nil:
		return append(b, tagNil)
	case bool:
		if t {
			return append(b, tagTrue)
		}
		return append(b, tagFalse)
	case int:
		return binary.AppendVarint(append(b, tagInt), int64(t))
	case int64:
		return binary.AppendVarint(append(b, tagInt64), t)
	case float64:
		return binary.LittleEndian.AppendUint64(append(b, tagFloat64), math.Float64bits(t))
	case string:
		return appendString(append(b, tagString), t)
	case []any:
		if t == nil {
			return append(b, tagSlice, 0)
		}
		b = binary.AppendUvarint(append(b, tagSlice), uint64(len(t))+1)
		for _, e := range t {
			b = appendValue(b, e)
		}
		return b
	case map[string]any:
		return appendMap(append(b, tagMap), t)
	}
	data, err := json.Marshal(v)
	if err != nil {
		// JSON cannot encode it either, so no archive could carry it:
		// keep what it prints as.
		data, _ = json.Marshal(fmt.Sprint(v))
	}
	return appendString(append(b, tagJSON), string(data))
}

// decoder reads one stored record. Every length and count is checked
// against the bytes left, so malformed input yields errCorrupt rather
// than a panic or an outsized allocation.
type decoder struct {
	b   []byte
	err error
}

// decodeStored decodes a stored record (TS and body); Seq is left zero.
func decodeStored(b []byte) (Record, error) {
	d := decoder{b: b}
	var r Record
	r.TS = time.Duration(d.varint())
	d.body(&r)
	if d.err == nil && len(d.b) != 0 {
		d.err = errCorrupt
	}
	return r, d.err
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = errCorrupt
	}
	d.b = nil
}

func (d *decoder) byte() byte {
	if len(d.b) == 0 {
		d.fail()
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) string() string {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.fail()
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// count reads a count-plus-one; ok is false for a nil collection. A
// count larger than the bytes left (every element takes at least one)
// is corrupt.
func (d *decoder) count() (n int, ok bool) {
	c := d.uvarint()
	if c == 0 {
		return 0, false
	}
	if c-1 > uint64(len(d.b)) {
		d.fail()
		return 0, false
	}
	return int(c - 1), true
}

func (d *decoder) body(r *Record) {
	if k := d.byte(); k == 0 {
		r.Kind = Kind(d.string())
	} else if int(k) <= len(kinds) {
		r.Kind = kinds[k-1]
	} else {
		d.fail()
	}
	bits := d.uvarint()
	if bits >= hasDeletes<<1 {
		d.fail()
	}
	for i, f := range r.text() {
		if bits&(1<<i) != 0 {
			*f = d.string()
		}
	}
	if bits&hasFields != 0 {
		r.Fields = d.mapValue()
	}
	if bits&hasSets != 0 {
		r.Sets = d.mapValue()
	}
	if bits&hasDeletes != 0 {
		if n, ok := d.count(); ok {
			r.Deletes = make([]string, n)
			for i := range r.Deletes {
				r.Deletes[i] = d.string()
			}
		}
	}
}

func (d *decoder) mapValue() map[string]any {
	n, ok := d.count()
	if !ok {
		return nil
	}
	m := make(map[string]any, n)
	for i := 0; i < n && d.err == nil; i++ {
		k := d.string()
		m[k] = d.value()
	}
	return m
}

func (d *decoder) value() any {
	switch d.byte() {
	case tagNil:
		return nil
	case tagFalse:
		return false
	case tagTrue:
		return true
	case tagInt:
		v := d.varint()
		if int64(int(v)) != v {
			d.fail()
		}
		return int(v)
	case tagInt64:
		return d.varint()
	case tagFloat64:
		if len(d.b) < 8 {
			d.fail()
			return nil
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
		d.b = d.b[8:]
		return v
	case tagString:
		return d.string()
	case tagSlice:
		n, ok := d.count()
		if !ok {
			return []any(nil)
		}
		s := make([]any, n)
		for i := 0; i < n && d.err == nil; i++ {
			s[i] = d.value()
		}
		return s
	case tagMap:
		return d.mapValue()
	case tagJSON:
		dec := json.NewDecoder(strings.NewReader(d.string()))
		dec.UseNumber()
		var v any
		if err := dec.Decode(&v); err != nil || dec.More() {
			d.fail()
		}
		return v
	}
	d.fail()
	return nil
}
