// Package trace implements Digibox's logging and replay subsystem
// (§3.5 of the paper).
//
// Every mock and scene logs three record kinds: events (event-generator
// firings like "motion detected"), actions (model changes, as leaf-path
// diffs), and messages (MQTT/REST traffic). Records are appended to an
// in-memory log and can be persisted as a JSONL trace file, packaged as
// a zip for sharing, and replayed against a live testbed
// (core.Testbed.Replay) so that the mocks and scenes reproduce the
// recorded behaviour with the original relative timing (or faster).
package trace

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
)

// Kind classifies a trace record.
type Kind string

const (
	// KindEvent is an event-generator firing (e.g. human presence
	// decided by a building scene).
	KindEvent Kind = "event"
	// KindAction is a committed model change, carried as leaf diffs.
	KindAction Kind = "action"
	// KindMessage is a protocol message sent or received (MQTT/REST).
	KindMessage Kind = "message"
	// KindViolation is a scene-property violation report.
	KindViolation Kind = "violation"
	// KindFault is an injected fault or a recovery from one (chaos
	// engine, runtime gap/recover markers).
	KindFault Kind = "fault"
	// KindSpan is a completed publish→deliver span: the measured
	// end-to-end latency of one MQTT delivery leg, correlated from the
	// obs tracer so replayed traces carry timing evidence. Spans are
	// observational — the replayer skips them.
	KindSpan Kind = "span"
	// KindMark is a harness marker written by the record/replay engine:
	// run boundaries, scripted scenario edits, deterministic pod
	// lifecycle. Marks carry no scene semantics but are part of the
	// canonical replay log, so the conformance digest covers them.
	KindMark Kind = "mark"
)

// Record is one log entry. The wire form is a single JSON object per
// line; the sample trace in the paper's §3.5 corresponds to Fields
// {"triggered": true} etc. with TS relative to trace start.
type Record struct {
	Seq    uint64         `json:"seq"`
	TS     time.Duration  `json:"ts"` // offset from trace start (nanoseconds in JSON)
	Kind   Kind           `json:"kind"`
	Name   string         `json:"name"`           // mock/scene instance
	Type   string         `json:"type,omitempty"` // mock/scene kind
	Fields map[string]any `json:"fields,omitempty"`
	// For KindAction: dotted path -> new value ("" op means set).
	Sets    map[string]any `json:"sets,omitempty"`
	Deletes []string       `json:"deletes,omitempty"`
	// For KindMessage.
	Topic     string `json:"topic,omitempty"`
	Payload   string `json:"payload,omitempty"`
	Direction string `json:"dir,omitempty"` // "send" or "recv"
	// For KindViolation.
	Property string `json:"property,omitempty"`
	Detail   string `json:"detail,omitempty"`
	// For KindFault: the fault kind ("disconnect", "node-down", ...)
	// or a recovery marker ("revert", "broker-gap", "broker-recover").
	Fault string `json:"fault,omitempty"`
}

// segmentSize is the capacity of a storage segment: large enough that
// one allocation holds hundreds of records, small enough that an idle
// log holds little more than one segment and a short index.
const segmentSize = 32 << 10

// segment is a run of stored records, back to back. Its bytes are never
// rewritten once appended, so a reader that took its header under the
// lock reads them without it. Neither slice holds pointers, so the
// garbage collector marks a segment but never scans it.
type segment struct {
	first int      // the log index of the segment's first record
	data  []byte   // stored records (see codec.go)
	ends  []uint32 // ends[i] is where record first+i ends in data
}

// Log is an append-only, concurrency-safe trace log for one testbed
// run. It stores each record encoded in fixed-size segments and
// decodes records only when they are read, so a record costs its
// encoding rather than a Record and its maps, and Append never copies
// the log to grow it.
type Log struct {
	mu    sync.Mutex
	start time.Time
	seq   uint64    // records appended; record i has Seq i+1
	segs  []segment // all full but the last
	bytes int       // capacity held by segs' data and ends
	// now is injectable for deterministic tests.
	now func() time.Time
}

// NewLog starts an empty log whose timestamps are relative to now.
func NewLog() *Log { return NewLogAt(clock.System.Now) }

// NewLogAt starts a log with an injected clock (tests, replay).
func NewLogAt(now func() time.Time) *Log {
	l := &Log{now: now}
	l.start = l.now()
	return l
}

// bodyPool holds the buffers Append encodes records into before it
// takes the lock.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// Append adds a record, stamping sequence and timestamp. The record is
// encoded before the lock is taken; under it, Append stamps Seq and TS
// and copies the encoding into the last segment.
func (l *Log) Append(r Record) Record {
	buf := bodyPool.Get().(*[]byte)
	body := appendBody((*buf)[:0], &r)
	l.mu.Lock()
	l.seq++
	r.Seq = l.seq
	r.TS = l.now().Sub(l.start)
	l.store(r.TS, body)
	l.mu.Unlock()
	if cap(body) <= segmentSize {
		*buf = body
		bodyPool.Put(buf)
	}
	return r
}

// store appends one stored record to the last segment, starting a new
// segment when it does not fit. A record larger than a segment gets a
// segment of its own size. Called with l.mu held.
func (l *Log) store(ts time.Duration, body []byte) {
	var tsb [binary.MaxVarintLen64]byte
	k := binary.PutVarint(tsb[:], int64(ts))
	need := k + len(body)
	last := len(l.segs) - 1
	if last < 0 || cap(l.segs[last].data)-len(l.segs[last].data) < need {
		// Size the index for as many records as the last segment held.
		ends := 64
		if last >= 0 {
			ends = max(ends, len(l.segs[last].ends))
		}
		l.segs = append(l.segs, segment{
			first: int(l.seq) - 1,
			data:  make([]byte, 0, max(segmentSize, need)),
			ends:  make([]uint32, 0, ends),
		})
		last++
		l.bytes += cap(l.segs[last].data) + 4*cap(l.segs[last].ends)
	}
	s := &l.segs[last]
	s.data = append(append(s.data, tsb[:k]...), body...)
	was := cap(s.ends)
	s.ends = append(s.ends, uint32(len(s.data)))
	l.bytes += 4 * (cap(s.ends) - was)
}

// Event logs an event-generator firing.
func (l *Log) Event(name, typ string, fields map[string]any) {
	l.Append(Record{Kind: KindEvent, Name: name, Type: typ, Fields: fields})
}

// Action logs a committed model change.
func (l *Log) Action(name, typ string, sets map[string]any, deletes []string) {
	l.Append(Record{Kind: KindAction, Name: name, Type: typ, Sets: sets, Deletes: deletes})
}

// Message logs a protocol message.
func (l *Log) Message(name, topic, payload, direction string) {
	l.Append(Record{Kind: KindMessage, Name: name, Topic: topic, Payload: payload, Direction: direction})
}

// Violation logs a scene-property violation.
func (l *Log) Violation(name, property, detail string) {
	l.Append(Record{Kind: KindViolation, Name: name, Property: property, Detail: detail})
}

// Fault logs an injected fault or a recovery. Fields carry the
// scheduled parameters (scoped target, rates, offsets) so a run's
// fault sequence can be compared across runs and replayed.
func (l *Log) Fault(name, fault, detail string, fields map[string]any) {
	l.Append(Record{Kind: KindFault, Name: name, Fault: fault, Detail: detail, Fields: fields})
}

// Mark logs a harness marker (record/replay engine boundaries).
func (l *Log) Mark(name, detail string, fields map[string]any) {
	l.Append(Record{Kind: KindMark, Name: name, Detail: detail, Fields: fields})
}

// Span logs a completed publish→deliver span. name is the publishing
// digi (or client id), topic the delivered topic, elapsed the
// end-to-end latency.
func (l *Log) Span(name, topic string, elapsed time.Duration) {
	l.Append(Record{Kind: KindSpan, Name: name, Topic: topic,
		Fields: map[string]any{"elapsed_ns": int64(elapsed)}})
}

// From calls fn on every record from index n on, in sequence order.
// Stored records are never rewritten, so it decodes them without the
// lock while Append fills the last segment's spare capacity, and
// decodes none of the records before n.
func (l *Log) From(n int, fn func(*Record)) {
	l.mu.Lock()
	i := sort.Search(len(l.segs), func(i int) bool {
		s := &l.segs[i]
		return s.first+len(s.ends) > n
	})
	segs := append([]segment(nil), l.segs[i:]...)
	l.mu.Unlock()
	for _, s := range segs {
		at := max(n-s.first, 0)
		off := uint32(0)
		if at > 0 {
			off = s.ends[at-1]
		}
		for j := at; j < len(s.ends); j++ {
			r, err := decodeStored(s.data[off:s.ends[j]])
			if err != nil {
				panic(fmt.Sprintf("trace: record %d: %v", s.first+j+1, err))
			}
			r.Seq = uint64(s.first + j + 1)
			off = s.ends[j]
			fn(&r)
		}
	}
}

// filter returns the records keep accepts, in sequence order.
func (l *Log) filter(keep func(*Record) bool) []Record {
	var out []Record
	l.From(0, func(r *Record) {
		if keep(r) {
			out = append(out, *r)
		}
	})
	return out
}

// Faults returns all fault/recovery records.
//
//dbox:allow deadcode -- core's chaos tests read fault records with it
func (l *Log) Faults() []Record {
	return l.filter(func(r *Record) bool { return r.Kind == KindFault })
}

// Records returns a copy of all records in sequence order.
func (l *Log) Records() []Record {
	out := make([]Record, 0, l.Len())
	l.From(0, func(r *Record) { out = append(out, *r) })
	return out
}

// Len returns the number of records.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.seq)
}

// Bytes returns the capacity the log's storage holds: its segments and
// their index.
func (l *Log) Bytes() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes
}

// Tail returns the number of records and the offset a record appended
// now would be stamped with: where a window that From reads back
// starts.
func (l *Log) Tail() (n int, at time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.seq), l.now().Sub(l.start)
}

// RecordsFor returns records for one mock/scene name.
//
//dbox:allow deadcode -- the digi, ctl and core tests read one digi's records with it
func (l *Log) RecordsFor(name string) []Record {
	return l.filter(func(r *Record) bool { return r.Name == name })
}

// Violations returns all property-violation records.
//
//dbox:allow deadcode -- property's tests read violation records with it
func (l *Log) Violations() []Record {
	return l.filter(func(r *Record) bool { return r.Kind == KindViolation })
}

// WriteJSONL streams records as one JSON object per line.
func WriteJSONL(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a JSONL trace stream into records, validating
// sequence monotonicity.
func ReadJSONL(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var out []Record
	line := 0
	var lastSeq uint64
	for sc.Scan() {
		line++
		data := sc.Bytes()
		if len(data) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(data, &rec); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		if rec.Seq <= lastSeq {
			return nil, fmt.Errorf("trace: line %d: sequence %d not increasing", line, rec.Seq)
		}
		lastSeq = rec.Seq
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Names returns the distinct mock/scene names in a trace, sorted.
func Names(recs []Record) []string {
	seen := map[string]bool{}
	for _, r := range recs {
		seen[r.Name] = true
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
