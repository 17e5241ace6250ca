package obs

import (
	"encoding/json"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
)

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.c.bits.Load())
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.c.bits.Load())
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("digibox_test_total", "a counter")
	c.Inc()
	c.Add(2)
	c.Add(-5) // negative adds ignored: counters are monotonic
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %v, want 3", got)
	}
	// Idempotent re-registration returns the same series.
	if got := r.Counter("digibox_test_total", "a counter").Value(); got != 3 {
		t.Fatalf("re-registered counter = %v, want 3", got)
	}

	g := r.GaugeVec("digibox_test_gauge", "a gauge", "l").With("v")
	g.Set(10)
	g.Set(6) // a gauge is replaced, not accumulated
	if got := g.Value(); got != 6 {
		t.Fatalf("gauge = %v, want 6", got)
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Counter("x", "").Inc()
	r.Histogram("x", "", nil).Observe(1)
	r.CounterVec("x", "", "l").With("v").Inc()
	r.GaugeVec("x", "", "l").With("v").Set(1)
	r.HistogramVec("x", "", nil, "l").With("v").Observe(1)
	r.CounterFunc("x", "", func() float64 { return 1 })
	r.GaugeFunc("x", "", func() float64 { return 1 })
	if err := r.WriteText(io.Discard); err != nil {
		t.Fatal(err)
	}
	if v := r.Value("x"); v != 0 {
		t.Fatalf("nil registry Value = %v", v)
	}
	if s := r.Snapshot(); len(s.Families) != 0 {
		t.Fatalf("nil registry snapshot has %d families", len(s.Families))
	}
	var tr *Tracer
	tr.SetSampleInterval(1)
	if id := tr.Start("a", "b"); id != 0 {
		t.Fatalf("nil tracer Start = %d", id)
	}
	tr.End(1)
	if NewTracer(nil) != nil {
		t.Fatal("NewTracer(nil) should be nil")
	}
}

func TestConflictingRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("digibox_conflict", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.GaugeFunc("digibox_conflict", "", func() float64 { return 0 })
}

// TestHistogramBucketBoundaries pins the le-inclusive convention: an
// observation exactly at a bound lands in that bound's bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("digibox_test_seconds", "bounds", []float64{0.1, 0.5, 1})
	h.Observe(0.1)  // == first bound -> bucket le=0.1
	h.Observe(0.11) // just above -> bucket le=0.5
	h.Observe(0.5)  // == second bound -> bucket le=0.5
	h.Observe(1.0)  // == last bound -> bucket le=1
	h.Observe(2.0)  // beyond -> +Inf
	h.Observe(0)    // below all -> first bucket

	fs := r.Snapshot().Family("digibox_test_seconds")
	if fs == nil {
		t.Fatal("family missing from snapshot")
	}
	got := fs.Metrics[0].Buckets
	want := []uint64{2, 2, 1, 1} // le=0.1, le=0.5, le=1, +Inf
	if len(got) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket[%d] = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if fs.Metrics[0].Sum != 0.1+0.11+0.5+1+2 {
		t.Fatalf("sum = %v", fs.Metrics[0].Sum)
	}
}

func TestDefBucketsStrictlyIncreasing(t *testing.T) {
	for i := 1; i < len(DefBuckets); i++ {
		if DefBuckets[i] <= DefBuckets[i-1] {
			t.Fatalf("DefBuckets[%d]=%v <= DefBuckets[%d]=%v",
				i, DefBuckets[i], i-1, DefBuckets[i-1])
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("digibox_q_seconds", "", []float64{1, 2, 3, 4})
	// 100 observations uniform in (0,4]: 25 per bucket.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.04)
	}
	if p50 := h.Quantile(0.5); math.Abs(p50-2.0) > 0.05 {
		t.Fatalf("p50 = %v, want ~2.0", p50)
	}
	if p99 := h.Quantile(0.99); math.Abs(p99-3.96) > 0.05 {
		t.Fatalf("p99 = %v, want ~3.96", p99)
	}
	// All mass beyond the last bound clamps to it.
	h2 := r.Histogram("digibox_q2_seconds", "", []float64{1, 2})
	h2.Observe(50)
	if got := h2.Quantile(0.5); got != 2 {
		t.Fatalf("overflow quantile = %v, want 2 (last bound)", got)
	}
	// Empty histogram.
	h3 := r.Histogram("digibox_q3_seconds", "", []float64{1})
	if got := h3.Quantile(0.99); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
}

func TestWriteTextAndParseBack(t *testing.T) {
	r := NewRegistry()
	r.Counter("digibox_a_total", "as counted").Add(7)
	r.GaugeVec("digibox_b", "bees", "hive").With("north").Set(2.5)
	r.Histogram("digibox_c_seconds", "sees", []float64{0.5, 1}).Observe(0.7)
	r.CounterFunc("digibox_d_total", "dees", func() float64 { return 42 })

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"# TYPE digibox_a_total counter",
		"digibox_a_total 7",
		`digibox_b{hive="north"} 2.5`,
		"# TYPE digibox_c_seconds histogram",
		`digibox_c_seconds_bucket{le="0.5"} 0`,
		`digibox_c_seconds_bucket{le="1"} 1`,
		`digibox_c_seconds_bucket{le="+Inf"} 1`,
		"digibox_c_seconds_sum 0.7",
		"digibox_c_seconds_count 1",
		"digibox_d_total 42",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}

	samples, families, err := ParseText(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(families) != 4 {
		t.Fatalf("parsed %d families, want 4: %v", len(families), families)
	}
	byName := map[string]Sample{}
	for _, s := range samples {
		if s.Labels == nil {
			byName[s.Name] = s
		}
	}
	if byName["digibox_a_total"].Value != 7 {
		t.Fatalf("round-trip a_total = %v", byName["digibox_a_total"].Value)
	}
	var found bool
	for _, s := range samples {
		if s.Name == "digibox_b" && s.Labels["hive"] == "north" && s.Value == 2.5 {
			found = true
		}
	}
	if !found {
		t.Fatalf("labelled gauge not round-tripped: %+v", samples)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("digibox_esc_total", "", "t").With(`a"b\c`).Inc()
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	samples, _, err := ParseText(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 1 || samples[0].Labels["t"] != `a"b\c` {
		t.Fatalf("escaped label round-trip failed: %+v", samples)
	}
}

// TestParseTextMalformed pins the failure modes of the scrape parser:
// every rejected input names the offending line, and tolerated
// oddities (comments, blank lines, unknown HELP text) never error.
func TestParseTextMalformed(t *testing.T) {
	bad := []struct {
		name, in, wantErr string
	}{
		{"no separator", "digibox_a_total", "line 1: no value separator"},
		{"non-numeric value", "digibox_a_total x", "line 1"},
		{"empty value", "digibox_a_total ", "line 1"},
		{"bad label pair", `digibox_b{hive} 1`, `bad label "hive"`},
		{"bad line cites position", "digibox_a_total 1\n\ndigibox_c nope", "line 3"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := ParseText(tc.in)
			if err == nil {
				t.Fatalf("ParseText(%q) accepted", tc.in)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}

	ok := []struct {
		name, in string
		samples  int
		families int
	}{
		{"empty input", "", 0, 0},
		{"comments only", "# HELP x y\n# TYPE digibox_a_total counter\n", 0, 1},
		{"short comment", "#\n# TYPE\n", 0, 0},
		{"duplicate TYPE counted once", "# TYPE digibox_a_total counter\n# TYPE digibox_a_total counter\ndigibox_a_total 1\n", 1, 1},
		{"inf and nan values", "digibox_a_total +Inf\ndigibox_b_total NaN\n", 2, 0},
		{"label value with comma", `digibox_a{t="x,y"} 1`, 1, 0},
	}
	for _, tc := range ok {
		t.Run(tc.name, func(t *testing.T) {
			samples, families, err := ParseText(tc.in)
			if err != nil {
				t.Fatalf("ParseText(%q): %v", tc.in, err)
			}
			if len(samples) != tc.samples || len(families) != tc.families {
				t.Fatalf("got %d samples / %d families, want %d / %d",
					len(samples), len(families), tc.samples, tc.families)
			}
		})
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Histogram("digibox_h_seconds", "", []float64{1, 2}).Observe(1.5)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	fs := snap.Family("digibox_h_seconds")
	if fs == nil || fs.Metrics[0].Count != 1 || fs.Metrics[0].P50 == 0 {
		t.Fatalf("JSON round-trip lost histogram detail: %s", data)
	}
}

func TestValuesSingleSweep(t *testing.T) {
	r := NewRegistry()
	r.Counter("digibox_v1_total", "").Add(3)
	r.CounterVec("digibox_v2_total", "", "l").With("a").Add(1)
	r.CounterVec("digibox_v2_total", "", "l").With("b").Add(2)
	r.Histogram("digibox_v3_seconds", "", []float64{1}).Observe(0.5)
	vals := r.Values()
	if vals["digibox_v1_total"] != 3 {
		t.Fatalf("v1 = %v", vals["digibox_v1_total"])
	}
	if vals["digibox_v2_total"] != 3 { // summed across children
		t.Fatalf("v2 = %v", vals["digibox_v2_total"])
	}
	if vals["digibox_v3_seconds"] != 1 { // histograms report count
		t.Fatalf("v3 = %v", vals["digibox_v3_seconds"])
	}
	if r.Value("digibox_v2_total") != 3 || r.Value("absent") != 0 {
		t.Fatal("Value mismatch")
	}
}

func TestTopicClass(t *testing.T) {
	cases := map[string]string{
		"digibox/L1/status":        "digibox/+/status",
		"digibox/a/b/c/status":     "digibox/+/status",
		"digibox/status":           "digibox/status",
		"status":                   "status",
		"home/kitchen/lamp/bright": "home/+/bright",
	}
	for in, want := range cases {
		if got := TopicClass(in); got != want {
			t.Fatalf("TopicClass(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestTracerSpans(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(r)
	tr.SetSampleInterval(1)
	var gotFrom, gotTopic string
	var gotElapsed time.Duration
	tr.OnSpan(func(_ int, from, topic string, elapsed time.Duration) {
		gotFrom, gotTopic, gotElapsed = from, topic, elapsed
	})

	// Drive the tracer from a virtual clock so the elapsed time is
	// exact rather than a lower bound on a real sleep.
	v := clock.NewVirtual()
	tr.clk = v

	id := tr.Start("L1", "digibox/L1/status")
	if id == 0 {
		t.Fatal("span id 0")
	}
	v.AdvanceTo(clock.Epoch.Add(2 * time.Millisecond))
	tr.End(id)
	tr.End(id) // second fan-out leg: non-destructive
	tr.End(id + 999)

	if gotFrom != "L1" || gotTopic != "digibox/L1/status" || gotElapsed < 2*time.Millisecond {
		t.Fatalf("OnSpan saw %q %q %v", gotFrom, gotTopic, gotElapsed)
	}
	snap := r.Snapshot()
	digi := snap.Family("digibox_e2e_latency_seconds")
	if digi == nil || digi.Metrics[0].Count != 2 {
		t.Fatalf("per-digi histogram: %+v", digi)
	}
	if digi.Metrics[0].LabelValues[0] != "L1" {
		t.Fatalf("digi label = %v", digi.Metrics[0].LabelValues)
	}
	class := snap.Family("digibox_e2e_topic_latency_seconds")
	if class == nil || class.Metrics[0].LabelValues[0] != "digibox/+/status" {
		t.Fatalf("class histogram: %+v", class)
	}
	if v := r.Value("digibox_spans_started_total"); v != 1 {
		t.Fatalf("spans started = %v", v)
	}
	if v := r.Value("digibox_spans_completed_total"); v != 2 {
		t.Fatalf("spans completed = %v", v)
	}
}

// TestSpanDigiAttribution pins how spans map to digi labels: a span is
// credited to its publisher, whatever the topic. Every digi publishes
// under its own name, so a digi whose meta.topic overrides the
// digibox/<name>/status convention keeps its label too.
func TestSpanDigiAttribution(t *testing.T) {
	cases := []struct{ from, topic string }{
		{"O1", "digibox/O1/status"},
		{"MeetingRoom", "digibox/MeetingRoom/status"},
		{"T1", "building/floor2/temp"}, // a meta.topic override
		{"sensor-42", "home/kitchen/temp"},
	}
	r := NewRegistry()
	tr := NewTracer(r)
	tr.SetSampleInterval(1)
	for _, c := range cases {
		tr.End(tr.Start(c.from, c.topic))
	}
	fs := r.Snapshot().Family("digibox_e2e_latency_seconds")
	if fs == nil {
		t.Fatal("no e2e latency family")
	}
	got := map[string]uint64{}
	for _, m := range fs.Metrics {
		got[m.LabelValues[0]] = m.Count
	}
	for _, c := range cases {
		if got[c.from] != 1 {
			t.Errorf("span from %q on %q: digi labels %v, want one span under %q", c.from, c.topic, got, c.from)
		}
	}
	if len(got) != len(cases) {
		t.Errorf("digi labels = %v, want exactly the %d publishers", got, len(cases))
	}
}

// TestSpanSampling pins the default 1-in-8 sampling: counters of
// routed messages stay exact elsewhere, but only every 8th Start
// opens a span.
func TestSpanSampling(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(r)
	opened := 0
	for i := 0; i < 16; i++ {
		if id := tr.Start("d", "a/b"); id != 0 {
			tr.End(id)
			opened++
		}
	}
	if opened != 2 {
		t.Fatalf("opened %d spans in 16 publishes, want 2 (1-in-8)", opened)
	}
	if v := r.Value("digibox_spans_started_total"); v != 2 {
		t.Fatalf("spans started = %v", v)
	}
	tr.SetSampleInterval(0) // clamps to 1: every message
	if tr.Start("d", "a/b") == 0 {
		t.Fatal("interval 1 still sampling out")
	}
}

// TestTracerAnonymousPublisher pins the "(app)" label for in-process
// publishes without an identity.
func TestTracerAnonymousPublisher(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(r)
	tr.SetSampleInterval(1)
	tr.End(tr.Start("", "t/x/y"))
	fs := r.Snapshot().Family("digibox_e2e_latency_seconds")
	if fs == nil || fs.Metrics[0].LabelValues[0] != "(app)" {
		t.Fatalf("anonymous label: %+v", fs)
	}
}

func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(r)
	tr.SetSampleInterval(1)
	c := r.Counter("digibox_cc_total", "")
	h := r.Histogram("digibox_ch_seconds", "", nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(0.001)
				tr.End(tr.Start("d", "a/b/c"))
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("concurrent counter = %v, want 8000", got)
	}
	if got := h.Count(); got != 8000 {
		t.Fatalf("concurrent histogram count = %v, want 8000", got)
	}
}
