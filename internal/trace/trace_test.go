package trace

import (
	"archive/zip"
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// fakeClock yields deterministic, strictly increasing timestamps.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1000, 0)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(time.Second)
	return c.t
}

// sampleLog builds the §3.5 sample trace from the paper:
//
//	{name:confcenter,num_human:1,ts:00:01}
//	{name:meetingroom,human_presence:false,ts:00:03}
//	{name:kitchen,human_presence:true,ts:00:03}
//	{name:o1,triggered:true,ts:00:04}
//	{name:l1,triggered:true,ts:00:05}
func sampleLog() *Log {
	l := NewLogAt(newFakeClock().now)
	l.Action("confcenter", "Building", map[string]any{"num_human": 1}, nil)
	l.Action("meetingroom", "Room", map[string]any{"human_presence": false}, nil)
	l.Action("kitchen", "Room", map[string]any{"human_presence": true}, nil)
	l.Action("o1", "Occupancy", map[string]any{"triggered": true}, nil)
	l.Action("l1", "Lamp", map[string]any{"triggered": true}, nil)
	return l
}

func TestAppendStampsSeqAndTS(t *testing.T) {
	l := sampleLog()
	recs := l.Records()
	if len(recs) != 5 {
		t.Fatalf("len = %d", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Errorf("rec %d seq = %d", i, r.Seq)
		}
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].TS <= recs[i-1].TS {
			t.Errorf("timestamps not increasing: %v then %v", recs[i-1].TS, recs[i].TS)
		}
	}
}

func TestRecordKindsAndAccessors(t *testing.T) {
	l := NewLog()
	l.Event("o1", "Occupancy", map[string]any{"motion": true})
	l.Message("l1", "digibox/l1/status", `{"power":"on"}`, "send")
	l.Violation("room", "lamp-off-when-empty", "lamp on while unoccupied")
	if l.Len() != 3 {
		t.Fatalf("len = %d", l.Len())
	}
	if got := l.RecordsFor("o1"); len(got) != 1 || got[0].Kind != KindEvent {
		t.Errorf("RecordsFor(o1) = %v", got)
	}
	if v := l.Violations(); len(v) != 1 || v[0].Property != "lamp-off-when-empty" {
		t.Errorf("Violations = %v", v)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	l := sampleLog()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, l.Records()); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\n"); n != 5 {
		t.Errorf("lines = %d", n)
	}
	recs, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	orig := l.Records()
	if len(recs) != len(orig) {
		t.Fatalf("got %d records", len(recs))
	}
	for i := range recs {
		// JSON round-trips numbers as float64; compare shape fields.
		if recs[i].Seq != orig[i].Seq || recs[i].Name != orig[i].Name ||
			recs[i].TS != orig[i].TS || recs[i].Kind != orig[i].Kind {
			t.Errorf("record %d: %+v vs %+v", i, recs[i], orig[i])
		}
	}
}

func TestReadJSONLRejectsBadSeq(t *testing.T) {
	in := `{"seq":1,"ts":0,"kind":"event","name":"a"}
{"seq":1,"ts":0,"kind":"event","name":"b"}`
	if _, err := ReadJSONL(strings.NewReader(in)); err == nil {
		t.Error("non-increasing seq accepted")
	}
	if _, err := ReadJSONL(strings.NewReader("not json\n")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestReadJSONLSkipsBlankLines(t *testing.T) {
	in := "{\"seq\":1,\"ts\":0,\"kind\":\"event\",\"name\":\"a\"}\n\n{\"seq\":2,\"ts\":0,\"kind\":\"event\",\"name\":\"b\"}\n"
	recs, err := ReadJSONL(strings.NewReader(in))
	if err != nil || len(recs) != 2 {
		t.Errorf("recs=%v err=%v", recs, err)
	}
}

func TestArchiveRoundTrip(t *testing.T) {
	l := sampleLog()
	data, err := l.ArchiveBytes()
	if err != nil {
		t.Fatal(err)
	}
	ar, err := ParseArchiveBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if recs := ar.Records; len(recs) != 5 || recs[0].Name != "confcenter" {
		t.Errorf("recs = %v", recs)
	}
	if _, err := ParseArchiveBytes([]byte("not a zip")); err == nil {
		t.Error("garbage archive accepted")
	}
}

// TestArchiveRoundTripAllKinds exercises every record kind through the
// zip archive, including the replay-engine kinds (fault, span, mark)
// added for record/replay — their kind-specific fields must survive
// packaging verbatim, since the conformance digest covers them.
func TestArchiveRoundTripAllKinds(t *testing.T) {
	l := NewLogAt(newFakeClock().now)
	l.Event("o1", "Occupancy", map[string]any{"triggered": true})
	l.Action("l1", "Lamp", map[string]any{"power.status": "on"}, []string{"note"})
	l.Message("l1", "digibox/l1/status", `{"power":"on"}`, "send")
	l.Violation("room", "lamp-off-when-empty", "lamp on while unoccupied")
	l.Fault("chaos", "drop", "digibox/# at 0.5", map[string]any{"rate": 0.5})
	l.Span(0, "o1", "digibox/o1/status", 3*time.Millisecond)
	l.Mark("replay", "scripted edit", map[string]any{"at_ms": int64(200)})

	data, err := l.ArchiveBytes()
	if err != nil {
		t.Fatal(err)
	}
	ar, err := ParseArchiveBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	recs := ar.Records
	orig := l.Records()
	if len(recs) != len(orig) {
		t.Fatalf("got %d records, want %d", len(recs), len(orig))
	}
	for i := range recs {
		r, o := recs[i], orig[i]
		if r.Seq != o.Seq || r.TS != o.TS || r.Kind != o.Kind || r.Name != o.Name {
			t.Errorf("record %d shape: %+v vs %+v", i, r, o)
		}
	}
	if f := recs[4]; f.Fault != "drop" || f.Detail != "digibox/# at 0.5" ||
		f.Fields["rate"] != 0.5 {
		t.Errorf("fault record lost fields: %+v", f)
	}
	if s := recs[5]; s.Topic != "digibox/o1/status" ||
		s.Fields["elapsed_ns"] != float64(3*time.Millisecond) {
		t.Errorf("span record lost fields: %+v", s)
	}
	if m := recs[6]; m.Detail != "scripted edit" || m.Fields["at_ms"] != float64(200) {
		t.Errorf("mark record lost fields: %+v", m)
	}
	if d := recs[1]; d.Sets["power.status"] != "on" ||
		len(d.Deletes) != 1 || d.Deletes[0] != "note" {
		t.Errorf("action record lost diffs: %+v", d)
	}
	// The archive is byte-stable for a fixed log: packaging the same
	// records twice yields identical trace.jsonl content.
	ar2, err := ParseArchiveBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs, ar2.Records) {
		t.Error("re-parsing the same archive produced different records")
	}
	// And the meta counts see the new kinds.
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range zr.File {
		if f.Name != "meta.txt" {
			continue
		}
		rc, _ := f.Open()
		meta, _ := io.ReadAll(rc)
		rc.Close()
		for _, want := range []string{"kind fault: 1", "kind span: 1", "kind mark: 1"} {
			if !strings.Contains(string(meta), want) {
				t.Errorf("meta.txt missing %q:\n%s", want, meta)
			}
		}
	}
}

func TestArchiveFileRoundTrip(t *testing.T) {
	l := sampleLog()
	path := filepath.Join(t.TempDir(), "trace.zip")
	if err := l.SaveArchive(path); err != nil {
		t.Fatal(err)
	}
	ar, err := LoadArchive(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ar.Records) != 5 {
		t.Errorf("len = %d", len(ar.Records))
	}
	if _, err := LoadArchive(filepath.Join(t.TempDir(), "missing.zip")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestNames(t *testing.T) {
	l := sampleLog()
	l.Event("o1", "Occupancy", nil)
	names := Names(l.Records())
	want := []string{"confcenter", "kitchen", "l1", "meetingroom", "o1"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("names = %v", names)
	}
}

// Concurrent appenders cross many segment boundaries, each encoding
// its record outside the lock: the records are stored in the order
// their sequence numbers were stamped, none lost or repeated.
func TestConcurrentAppend(t *testing.T) {
	const appenders, each = 8, 4096
	l := NewLog()
	var wg sync.WaitGroup
	for i := 0; i < appenders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				l.Event("x", "T", nil)
			}
		}()
	}
	wg.Wait()
	recs := l.Records()
	if len(recs) != appenders*each || len(l.segs) < 4 {
		t.Fatalf("len = %d in %d segments, want %d in at least 4", len(recs), len(l.segs), appenders*each)
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d, want %d", i, r.Seq, i+1)
		}
	}
}

func TestSpanRecords(t *testing.T) {
	l := NewLogAt(newFakeClock().now)
	l.Span(0, "L1", "digibox/L1/status", 1500*time.Microsecond)
	recs := l.Records()
	if len(recs) != 1 || recs[0].Kind != KindSpan {
		t.Fatalf("recs = %+v", recs)
	}
	if recs[0].Name != "L1" || recs[0].Topic != "digibox/L1/status" {
		t.Fatalf("span fields: %+v", recs[0])
	}
	if ns, ok := recs[0].Fields["elapsed_ns"].(int64); !ok || ns != int64(1500*time.Microsecond) {
		t.Fatalf("elapsed_ns = %v", recs[0].Fields["elapsed_ns"])
	}
}

// TestBounds checks the start and end an archive's header reports:
// equal for an empty log, end at the last record's offset otherwise.
func TestBounds(t *testing.T) {
	l := NewLogAt(newFakeClock().now)
	data, err := l.ArchiveBytes()
	if err != nil {
		t.Fatal(err)
	}
	meta := archiveMeta(t, data)
	if meta["start"] != meta["end"] || meta["records"] != "0" {
		t.Fatalf("empty log bounds: %v", meta)
	}
	l.Event("o1", "Occupancy", nil)
	l.Event("o1", "Occupancy", nil)
	l.Span(0, "o1", "t/x/s", time.Millisecond)
	if data, err = l.ArchiveBytes(); err != nil {
		t.Fatal(err)
	}
	meta = archiveMeta(t, data)
	start, err1 := time.Parse(time.RFC3339Nano, meta["start"])
	end, err2 := time.Parse(time.RFC3339Nano, meta["end"])
	if err1 != nil || err2 != nil || end.Sub(start) != 3*time.Second {
		t.Fatalf("bounds %v .. %v (%v, %v), want 3s apart", start, end, err1, err2)
	}
	if meta["kind event"] != "2" || meta["kind span"] != "1" {
		t.Fatalf("kind counts: %v", meta)
	}
}

// TestArchiveMeta pins the self-describing meta.txt layout: total
// records (first, for compatibility), start/end timestamps, and
// per-kind counts.
func TestArchiveMeta(t *testing.T) {
	l := sampleLog()
	l.Event("o1", "Occupancy", map[string]any{"triggered": true})
	var buf bytes.Buffer
	if err := l.WriteArchive(&buf); err != nil {
		t.Fatal(err)
	}
	zr, err := zip.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	var meta string
	for _, f := range zr.File {
		if f.Name == "meta.txt" {
			rc, err := f.Open()
			if err != nil {
				t.Fatal(err)
			}
			data, err := io.ReadAll(rc)
			rc.Close()
			if err != nil {
				t.Fatal(err)
			}
			meta = string(data)
		}
	}
	if meta == "" {
		t.Fatal("archive has no meta.txt")
	}
	lines := strings.Split(strings.TrimSpace(meta), "\n")
	if lines[0] != "digibox-trace v1" || lines[1] != "records: 6" {
		t.Fatalf("meta header: %q", lines[:2])
	}
	var hasStart, hasEnd bool
	counts := map[string]string{}
	for _, ln := range lines[2:] {
		switch {
		case strings.HasPrefix(ln, "start: "):
			hasStart = true
			if _, err := time.Parse(time.RFC3339Nano, strings.TrimPrefix(ln, "start: ")); err != nil {
				t.Fatalf("start timestamp: %v", err)
			}
		case strings.HasPrefix(ln, "end: "):
			hasEnd = true
		case strings.HasPrefix(ln, "kind "):
			kv := strings.SplitN(strings.TrimPrefix(ln, "kind "), ": ", 2)
			counts[kv[0]] = kv[1]
		}
	}
	if !hasStart || !hasEnd {
		t.Fatalf("meta missing start/end:\n%s", meta)
	}
	if counts["action"] != "5" || counts["event"] != "1" {
		t.Fatalf("kind counts: %v\n%s", counts, meta)
	}
}

// Append must never copy the log to grow it: filling a log allocates
// little more than the records' encodings, and the accessors see every
// record across segment boundaries.
func TestAppendDoesNotCopyTheLog(t *testing.T) {
	const n = 1 << 20
	l := NewLog()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		l.Append(Record{Kind: KindEvent})
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	if limit := uint64(n * 32); got > limit {
		t.Errorf("appending %d records allocated %d MB, want under %d MB", n, got>>20, limit>>20)
	}
	if l.Len() != n {
		t.Fatalf("Len = %d, want %d", l.Len(), n)
	}
	read := 0
	l.From(0, func(r *Record) {
		if read++; r.Seq != uint64(read) || r.Kind != KindEvent {
			t.Fatalf("record %d read back as %+v", read, r)
		}
	})
	if read != n || len(l.segs) < 2 {
		t.Fatalf("From(0) read %d records in %d segments, want %d across several", read, len(l.segs), n)
	}
}

// archiveMeta returns an archive's meta.txt as key/value pairs.
func archiveMeta(t *testing.T, data []byte) map[string]string {
	t.Helper()
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	meta := map[string]string{}
	for _, f := range zr.File {
		if f.Name != "meta.txt" {
			continue
		}
		rc, err := f.Open()
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, ln := range strings.Split(strings.TrimSpace(string(body)), "\n") {
			if k, v, ok := strings.Cut(ln, ": "); ok {
				meta[k] = v
			}
		}
	}
	return meta
}

// rewriteEntry returns a copy of a zip with one entry's content passed
// through edit.
func rewriteEntry(t *testing.T, data []byte, name string, edit func([]byte) []byte) []byte {
	t.Helper()
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	for _, f := range zr.File {
		rc, err := f.Open()
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			t.Fatal(err)
		}
		if f.Name == name {
			body = edit(body)
		}
		w, err := zw.Create(f.Name)
		if err != nil {
			t.Fatal(err)
		}
		w.Write(body)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// An archive carries the digest of its normalized records, and the
// reader refuses one whose trace.jsonl no longer hashes to it.
func TestArchiveRefusesEditedRecords(t *testing.T) {
	l := sampleLog()
	l.Message("o1", "digibox/o1/status", `{"triggered":true}`, "send")
	l.Span(0, "o1", "digibox/o1/status", time.Millisecond)
	data, err := l.ArchiveBytes()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Digest(Normalize(l.Records()))
	if err != nil {
		t.Fatal(err)
	}
	ar, err := ParseArchiveBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if meta := archiveMeta(t, data)["digest"]; ar.Digest != want || meta != want || ar.Scenario != nil {
		t.Fatalf("archive digest %q (meta %q), want %q; scenario %q", ar.Digest, meta, want, ar.Scenario)
	}

	edited := rewriteEntry(t, data, "trace.jsonl", func(b []byte) []byte {
		return bytes.Replace(b, []byte(`{\"triggered\":true}`), []byte(`{\"triggered\":false}`), 1)
	})
	if _, err := ParseArchiveBytes(edited); err == nil || !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("edited payload: err = %v, want a digest mismatch", err)
	}
	dropLine := func(i int) func([]byte) []byte {
		return func(b []byte) []byte {
			lines := bytes.SplitAfter(b, []byte("\n"))
			return bytes.Join(append(lines[:i:i], lines[i+1:]...), nil)
		}
	}
	// Dropping a record, or a span the digest does not cover, changes
	// the record count meta.txt pins.
	for _, i := range []int{2, 6} {
		if _, err := ParseArchiveBytes(rewriteEntry(t, data, "trace.jsonl", dropLine(i))); err == nil {
			t.Errorf("archive with line %d dropped accepted", i+1)
		}
	}
	noDigest := rewriteEntry(t, data, "meta.txt", func(b []byte) []byte {
		return b[:bytes.Index(b, []byte("digest: "))]
	})
	if _, err := ParseArchiveBytes(noDigest); err == nil {
		t.Error("archive without a digest accepted")
	}
}

// A recorded run's archive stores its scenario next to the records.
func TestArchiveCarriesScenario(t *testing.T) {
	l := sampleLog()
	var buf bytes.Buffer
	scenario := []byte("scenario: s\nduration_ms: 10\n")
	if err := WriteArchive(&buf, time.Unix(0, 0), l.Records(), scenario); err != nil {
		t.Fatal(err)
	}
	ar, err := ParseArchiveBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ar.Scenario, scenario) || len(ar.Records) != 5 {
		t.Fatalf("scenario %q, %d records", ar.Scenario, len(ar.Records))
	}
}

// Tail and From read back exactly the records appended after a point,
// across segment boundaries, with the offset the window started at.
func TestTailFrom(t *testing.T) {
	const each = 2000
	l := NewLogAt(newFakeClock().now)
	for i := 0; i < each+10; i++ {
		l.Event("o1", "Occupancy", nil)
	}
	n, at := l.Tail()
	if n != each+10 || at != time.Duration(each+11)*time.Second {
		t.Fatalf("Tail = %d, %v", n, at)
	}
	for i := 0; i < each; i++ {
		l.Event("o2", "Occupancy", nil)
	}
	if len(l.segs) < 2 {
		t.Fatalf("%d records fit one segment; the test must cross a boundary", l.Len())
	}
	var got []Record
	l.From(n, func(r *Record) { got = append(got, *r) })
	if len(got) != each || got[0].Seq != uint64(n+1) || got[0].Name != "o2" || got[0].TS <= at {
		t.Fatalf("From(%d) read %d records, first %+v", n, len(got), got[0])
	}
	for i, r := range got {
		if r.Seq != uint64(n+1+i) || r.Name != "o2" {
			t.Fatalf("From(%d) record %d = %+v", n, i, r)
		}
	}
	var none int
	l.From(l.Len(), func(*Record) { none++ })
	l.From(10*l.Len(), func(*Record) { none++ })
	if none != 0 {
		t.Fatalf("From past the end read %d records", none)
	}
}

// Wait's channel is closed by the next Append, or at once for a reader
// that is behind; a log nobody waits on holds no channel.
func TestWaitClosesOnTheNextAppend(t *testing.T) {
	l := NewLogAt(newFakeClock().now)
	closed := func(c <-chan struct{}) bool {
		select {
		case <-c:
			return true
		default:
			return false
		}
	}
	l.Event("o1", "Occupancy", nil)
	if l.wake != nil {
		t.Fatal("an append with no reader waiting made a channel")
	}
	if !closed(l.Wait(0)) {
		t.Fatal("a reader behind the log waits")
	}
	w := l.Wait(1)
	if closed(w) {
		t.Fatal("a reader at the tail does not wait")
	}
	if l.Wait(1) != w {
		t.Fatal("two readers at the tail wait on different channels")
	}
	l.Event("o1", "Occupancy", nil)
	if !closed(w) || l.wake != nil {
		t.Fatal("the append neither closed the channel nor dropped it")
	}
}

// TestSpanBodyMatchesAppendBody pins appendSpanBody to the encoding
// appendBody writes for the same span record.
func TestSpanBodyMatchesAppendBody(t *testing.T) {
	if kinds[spanKind-1] != KindSpan {
		t.Fatalf("spanKind %d is %q", spanKind, kinds[spanKind-1])
	}
	for _, c := range []struct {
		name, topic string
		elapsed     time.Duration
	}{{"o1", "digibox/o1/status", 3 * time.Millisecond}, {"", "t", 0}, {"n", "", -1}, {"", "", time.Hour}} {
		want := appendBody(nil, &Record{Kind: KindSpan, Name: c.name, Topic: c.topic,
			Fields: map[string]any{"elapsed_ns": int64(c.elapsed)}})
		if got := appendSpanBody(nil, c.name, c.topic, c.elapsed); !bytes.Equal(got, want) {
			t.Errorf("%+v: appendSpanBody %x, appendBody %x", c, got, want)
		}
	}
}

// TestLaneSpansKeepStampsAndOrder logs spans on lanes 1 and up from
// concurrent writers, one per lane, beside lane-0 records: a reader
// sees every span logged before it read, each lane's spans in the
// order they were logged, each with the stamp it was logged at.
func TestLaneSpansKeepStampsAndOrder(t *testing.T) {
	l := NewLogAt(newFakeClock().now)
	const each = 3*spanBatch + 5
	var wg sync.WaitGroup
	for lane := 1; lane < 4; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				l.Span(lane, fmt.Sprint(lane), fmt.Sprint(i), time.Duration(i))
			}
		}()
	}
	for i := 0; i < each; i++ {
		l.Event("e", "", nil)
		l.Len() // a reader flushes whatever a lane holds
	}
	wg.Wait()
	if n := l.Len(); n != 4*each {
		t.Fatalf("len %d, want %d", n, 4*each)
	}
	next := map[string]int{}
	lastTS := map[string]time.Duration{}
	for _, r := range l.Records() {
		if r.Kind != KindSpan {
			continue
		}
		if r.Topic != fmt.Sprint(next[r.Name]) || r.Fields["elapsed_ns"] != int64(next[r.Name]) {
			t.Fatalf("lane %s: span %s (elapsed %v), want %d", r.Name, r.Topic, r.Fields["elapsed_ns"], next[r.Name])
		}
		if r.TS <= lastTS[r.Name] {
			t.Fatalf("lane %s: span %s stamped %v after %v", r.Name, r.Topic, r.TS, lastTS[r.Name])
		}
		next[r.Name]++
		lastTS[r.Name] = r.TS
	}
	for lane := 1; lane < 4; lane++ {
		if next[fmt.Sprint(lane)] != each {
			t.Fatalf("lane %d: %d spans, want %d", lane, next[fmt.Sprint(lane)], each)
		}
	}
}

// TestSpanLanesOwnCacheLines pins the layout of the log's per-lane span
// buffers: each lane's lock and buffer header fill whole 64-byte cache
// lines, starting on a line boundary.
func TestSpanLanesOwnCacheLines(t *testing.T) {
	l := NewLog()
	if stride := unsafe.Sizeof(spanLane{}); stride < 64 || stride%64 != 0 {
		t.Errorf("spanLane stride %d bytes, want a multiple of 64", stride)
	}
	if addr := uintptr(unsafe.Pointer(&l.spans[0])); addr%64 != 0 {
		t.Errorf("lane 0's span buffer at %#x, not on a 64-byte line", addr)
	}
}
