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
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
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
	seq   uint64        // records appended; record i has Seq i+1
	segs  []segment     // all full but the last
	bytes int           // capacity held by segs' data and ends
	wake  chan struct{} // closed by the next Append; nil while nobody waits
	// now is injectable for deterministic tests.
	now func() time.Time

	// spans buffers the span records of publish lanes 1 and up (see
	// Span); buffered counts the lanes whose buffer holds any.
	spans    []spanLane
	buffered atomic.Int32
}

// spanBatch is how many span records a lane buffers before it appends
// them in one batch.
const spanBatch = 64

// spanLane is one publish lane's buffered span records. A slice of them
// is allocated in a 64-byte multiple, which Go's size classes align to
// 64 bytes, so each lane's buffer header fills a cache line of its own.
type spanLane struct {
	mu   sync.Mutex
	recs []laneSpan
	_    [32]byte
}

// laneSpan is a buffered span record with the stamp it was logged at.
type laneSpan struct {
	ts          time.Duration
	name, topic string
	elapsed     time.Duration
}

// NewLog starts an empty log whose timestamps are relative to now.
func NewLog() *Log { return NewLogAt(clock.System.Now) }

// NewLogAt starts a log with an injected clock (tests, replay).
func NewLogAt(now func() time.Time) *Log {
	l := &Log{now: now, spans: make([]spanLane, obs.Lanes)}
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
	l.wakeReaders()
	l.mu.Unlock()
	putBody(buf, body)
	return r
}

// putBody returns an encoding buffer to bodyPool.
func putBody(buf *[]byte, body []byte) {
	if cap(body) <= segmentSize {
		*buf = body
		bodyPool.Put(buf)
	}
}

// wakeReaders wakes a Wait. Called with l.mu held.
func (l *Log) wakeReaders() {
	if l.wake != nil {
		close(l.wake)
		l.wake = nil
	}
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

// Message logs a protocol message. It keeps no reference to payload:
// the log encodes a copy of it before Message returns, so payload may
// view bytes the caller changes or hands on once Message returns (a
// digi's status publish does).
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

// Span logs a completed publish→deliver span. lane is the publish
// lane of the delivery (obs.Lanes), name the publishing digi (or
// client id), topic the delivered topic, elapsed the end-to-end
// latency. Lane 0 appends the record at once. Another lane stamps it
// and buffers it in the lane's own buffer, so a swarm worker takes no
// lock another worker takes, and appends its buffer in one batch once
// it holds spanBatch records or a reader reads the log. A buffered
// record keeps its stamp, so its TS can be earlier than that of a
// record before it; spans are observational, and Normalize drops them.
func (l *Log) Span(lane int, name, topic string, elapsed time.Duration) {
	if lane == 0 {
		buf := bodyPool.Get().(*[]byte)
		body := appendSpanBody((*buf)[:0], name, topic, elapsed)
		l.mu.Lock()
		l.seq++
		l.store(l.now().Sub(l.start), body)
		l.wakeReaders()
		l.mu.Unlock()
		putBody(buf, body)
		return
	}
	ts := l.now().Sub(l.start)
	sl := &l.spans[lane]
	sl.mu.Lock()
	if len(sl.recs) == 0 {
		l.buffered.Add(1)
	}
	sl.recs = append(sl.recs, laneSpan{ts, name, topic, elapsed})
	if len(sl.recs) == spanBatch {
		l.flushLane(lane)
	}
	sl.mu.Unlock()
}

// flushLane appends lane's buffered span records, in the order they
// were logged, under one hold of l.mu. Called with the lane's mu held.
func (l *Log) flushLane(lane int) {
	sl := &l.spans[lane]
	buf := bodyPool.Get().(*[]byte)
	body := (*buf)[:0]
	var ends [spanBatch]int
	for i, r := range sl.recs {
		body = appendSpanBody(body, r.name, r.topic, r.elapsed)
		ends[i] = len(body)
	}
	l.mu.Lock()
	from := 0
	for i, r := range sl.recs {
		l.seq++
		l.store(r.ts, body[from:ends[i]])
		from = ends[i]
	}
	l.wakeReaders()
	l.mu.Unlock()
	putBody(buf, body)
	clear(sl.recs)
	sl.recs = sl.recs[:0]
	l.buffered.Add(-1)
}

// flushSpans appends every lane's buffered span records, so a reader
// sees every span logged before it read.
func (l *Log) flushSpans() {
	if l.buffered.Load() == 0 {
		return
	}
	for lane := 1; lane < len(l.spans); lane++ {
		sl := &l.spans[lane]
		sl.mu.Lock()
		if len(sl.recs) > 0 {
			l.flushLane(lane)
		}
		sl.mu.Unlock()
	}
}

// From calls fn on every record from index n on, in sequence order.
// Stored records are never rewritten, so it decodes them without the
// lock while Append fills the last segment's spare capacity, and
// decodes none of the records before n.
func (l *Log) From(n int, fn func(*Record)) {
	l.flushSpans()
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

// Wait returns a channel closed once the log holds more than n
// records: by the next Append, or at once when it does already.
func (l *Log) Wait(n int) <-chan struct{} {
	l.flushSpans()
	l.mu.Lock()
	defer l.mu.Unlock()
	if int(l.seq) > n {
		behind := make(chan struct{})
		close(behind)
		return behind
	}
	if l.wake == nil {
		l.wake = make(chan struct{})
	}
	return l.wake
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
	l.flushSpans()
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.seq)
}

// Bytes returns the capacity the log's storage holds: its segments and
// their index.
func (l *Log) Bytes() int {
	l.flushSpans()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes
}

// Tail returns the number of records and the offset a record appended
// now would be stamped with: where a window that From reads back
// starts.
func (l *Log) Tail() (n int, at time.Duration) {
	l.flushSpans()
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
