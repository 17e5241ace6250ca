package trace

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

// stored returns a record's stored form, as Log keeps it.
func stored(r *Record) []byte {
	return appendBody(binary.AppendVarint(nil, int64(r.TS)), r)
}

// handMade are records that hold every value type the codec keeps
// exact, the ones a JSON round trip would change included.
func handMade() []Record {
	return []Record{
		{Kind: KindAction, Name: "L1", Type: "Lamp", TS: 3 * time.Second, Sets: map[string]any{
			"power.status": "on", "intensity.status": 0.5, "meta.seed": int64(21),
			"big": int64(1<<53 + 1), "min": int64(math.MinInt64), "whole": 2.0, "neg0": math.Copysign(0, -1),
			"count": 7, "off": false, "gone": nil, "meta.attach": []any{}, "spec": map[string]any{},
		}, Deletes: []string{"meta.fault"}},
		{Kind: KindEvent, Name: "R1", Fields: map[string]any{
			"nested":  map[string]any{"a": []any{int64(1), 1.0, 1, "1", true, nil, map[string]any{"b": []any{}}}},
			"nil_map": map[string]any(nil), "nil_slice": []any(nil),
		}},
		{Kind: KindMark, Name: "day", Detail: "script-edit", Fields: map[string]any{}, Deletes: []string{}},
		{Kind: KindMessage, Name: "o1", Topic: "digibox/o1/status", Payload: "{\"triggered\":true}\xff", Direction: "send", TS: -time.Second},
		{Kind: KindViolation, Name: "R1", Property: "lamp-follows", Detail: "l1 off"},
		{Kind: KindFault, Name: "runtime", Type: "chaos", Fault: "broker-gap", Detail: "severed"},
		{Kind: KindSpan, Name: "L1", Topic: "t", Fields: map[string]any{"elapsed_ns": int64(1500)}},
		{Kind: "custom", Fields: map[string]any{"n": json.Number("12345678901234567890"), "u": uint8(3)}},
		{},
	}
}

// goldenRecords returns every record of the examples' committed traces.
func goldenRecords(t testing.TB) []Record {
	paths, err := filepath.Glob("../../examples/*/testdata/*.trace.jsonl")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no golden traces: %v", err)
	}
	var out []Record
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := ReadJSONL(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		out = append(out, recs...)
	}
	return out
}

// holdsNaN reports whether a value holds a NaN, which DeepEqual never
// finds equal to itself.
func holdsNaN(v any) bool {
	switch t := v.(type) {
	case float64:
		return t != t
	case []any:
		for _, e := range t {
			if holdsNaN(e) {
				return true
			}
		}
	case map[string]any:
		for _, e := range t {
			if holdsNaN(e) {
				return true
			}
		}
	}
	return false
}

// FuzzRecordCodec checks that a record reads back from its encoding
// exactly, types included: the seeds are every golden record and the
// hand-made ones, and any other input that decodes is a record too.
// Uint8 and json.Number are not codec types, so the hand-made record
// that holds them is kept only as a seed.
func FuzzRecordCodec(f *testing.F) {
	for _, r := range append(goldenRecords(f), handMade()...) {
		r.Seq = 0 // a record's index gives its Seq; the encoding does not hold it
		if got, err := decodeStored(stored(&r)); err != nil || (r.Kind != "custom" && !reflect.DeepEqual(got, r)) {
			f.Fatalf("%+v read back as %+v, %v", r, got, err)
		}
		f.Add(stored(&r))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := decodeStored(data)
		if err != nil || holdsNaN(r.Fields) || holdsNaN(r.Sets) {
			return
		}
		got, err := decodeStored(stored(&r))
		if err != nil {
			t.Fatalf("re-encoding of %+v does not decode: %v", r, err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("%+v read back as %+v", r, got)
		}
	})
}

// A value outside the codec's types reads back as JSON's reading of
// it, so it marshals to the same bytes.
func TestCodecKeepsOtherTypesAsJSON(t *testing.T) {
	r := handMade()[7]
	got, err := decodeStored(stored(&r))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(r)
	if data, _ := json.Marshal(got); string(data) != string(want) {
		t.Fatalf("read back as %s, want %s", data, want)
	}
}

// The log reads back exactly what Append returned, across segments.
func TestLogReadsBackWhatWasAppended(t *testing.T) {
	l := NewLogAt(newFakeClock().now)
	var want []Record
	for len(l.segs) < 3 {
		for _, r := range handMade()[:7] {
			want = append(want, l.Append(r))
		}
	}
	if got := l.Records(); !reflect.DeepEqual(got, want) {
		t.Fatalf("read back %d records, not the %d appended", len(got), len(want))
	}
	if b := l.Bytes(); b < len(l.segs)*segmentSize {
		t.Fatalf("Bytes = %d for %d segments", b, len(l.segs))
	}
}

// Four appenders run beside a reader: every window the reader sees is
// a gap-free prefix of sequence numbers whose timestamps never go back.
func TestFromSeesGapFreePrefixWhileAppending(t *testing.T) {
	const appenders, each = 4, 3000
	l := NewLog()
	var wg sync.WaitGroup
	done := make(chan struct{})
	for i := 0; i < appenders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				l.Event("o1", "Occupancy", map[string]any{"j": j, "on": j%2 == 0})
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()
	windows := 0
	for stop := false; !stop; windows++ {
		select {
		case <-done:
			stop = true // one last window over the whole log
		default:
		}
		var seq uint64
		var ts time.Duration
		l.From(0, func(r *Record) {
			if r.Seq != seq+1 || r.TS < ts {
				t.Fatalf("window %d: record seq %d at %v follows seq %d at %v", windows, r.Seq, r.TS, seq, ts)
			}
			seq, ts = r.Seq, r.TS
		})
		if stop && seq != appenders*each {
			t.Fatalf("last window ends at seq %d, want %d", seq, appenders*each)
		}
	}
}
