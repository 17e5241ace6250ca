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

// chunkSize is the number of records per storage chunk. An idle log
// holds two (the last one and the next), so chunks are small: 256
// records are 50 KB.
const chunkSize = 256

// Log is an append-only, concurrency-safe trace log for one testbed
// run. Records live in fixed-size chunks, so Append never copies the
// log to grow it.
type Log struct {
	mu     sync.Mutex
	start  time.Time
	seq    uint64
	chunks [][]Record // all full but the last
	next   []Record   // the chunk after the last, allocated outside the lock
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

// Append adds a record, stamping sequence and timestamp. The record
// that finds the last chunk full moves on to l.next and, once it has
// released the lock, allocates the chunk after that, so no appender
// waits on a chunk allocation.
func (l *Log) Append(r Record) Record {
	l.mu.Lock()
	last := len(l.chunks) - 1
	refill := last < 0 || len(l.chunks[last]) == chunkSize
	if refill {
		c := l.next
		if c == nil {
			// The first record, or a chunk filled before its successor
			// was allocated.
			c = make([]Record, 0, chunkSize)
		}
		l.chunks, l.next = append(l.chunks, c), nil
		last++
	}
	l.seq++
	r.Seq = l.seq
	r.TS = l.now().Sub(l.start)
	l.chunks[last] = append(l.chunks[last], r)
	l.mu.Unlock()
	if refill {
		c := make([]Record, 0, chunkSize)
		l.mu.Lock()
		if l.next == nil {
			l.next = c
		}
		l.mu.Unlock()
	}
	return r
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
// Stored records are never rewritten, so it reads them without the
// lock while Append fills the last chunk's spare capacity, and copies
// neither them nor the chunks before n.
func (l *Log) From(n int, fn func(*Record)) {
	l.mu.Lock()
	first := min(n/chunkSize, len(l.chunks))
	chunks := append([][]Record(nil), l.chunks[first:]...)
	l.mu.Unlock()
	skip := n - first*chunkSize
	for _, c := range chunks {
		for i := skip; i < len(c); i++ {
			fn(&c[i])
		}
		skip = 0
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
	return l.lenLocked()
}

func (l *Log) lenLocked() int {
	if len(l.chunks) == 0 {
		return 0
	}
	return (len(l.chunks)-1)*chunkSize + len(l.chunks[len(l.chunks)-1])
}

// Tail returns the number of records and the offset a record appended
// now would be stamped with: where a window that From reads back
// starts.
func (l *Log) Tail() (n int, at time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lenLocked(), l.now().Sub(l.start)
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
