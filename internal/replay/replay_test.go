package replay

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/clock"
	"repro/internal/device"
	"repro/internal/digi"
	"repro/internal/scene"
	"repro/internal/trace"
)

func testRegistry(t *testing.T) *digi.Registry {
	t.Helper()
	reg := digi.NewRegistry()
	if err := device.RegisterAll(reg); err != nil {
		t.Fatal(err)
	}
	if err := scene.RegisterAll(reg); err != nil {
		t.Fatal(err)
	}
	return reg
}

func quickScenario() *Scenario {
	return &Scenario{
		Name:     "quick",
		Duration: 500 * time.Millisecond,
		Digis: []Digi{
			{Type: "Occupancy", Name: "O1",
				Config: map[string]any{"interval_ms": int64(50), "trigger_prob": 1.0, "seed": int64(7)}},
			{Type: "Lamp", Name: "L1"},
			{Type: "Room", Name: "MeetingRoom",
				Config: map[string]any{"managed": false},
				Attach: []string{"O1", "L1"}},
		},
		Script: []Edit{
			{At: 200 * time.Millisecond, Name: "MeetingRoom",
				Patch: map[string]any{"human_presence": true}},
		},
	}
}

func TestEngineDeterministic(t *testing.T) {
	reg := testRegistry(t)
	sc := quickScenario()
	a, err := Record(reg, sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Record(reg, sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("two runs of the same scenario diverged:\n  %s\n  %s", a.Digest, b.Digest)
	}
	if len(a.Records) == 0 {
		t.Fatal("run produced no records")
	}
	if len(a.Records) != len(b.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if a.Records[i].TS != b.Records[i].TS || a.Records[i].Kind != b.Records[i].Kind {
			t.Fatalf("record %d differs: %+v vs %+v", i, a.Records[i], b.Records[i])
		}
	}
}

func TestEngineRunsTheScene(t *testing.T) {
	reg := testRegistry(t)
	res, err := Record(reg, quickScenario())
	if err != nil {
		t.Fatal(err)
	}
	// The scripted human_presence edit must have driven the lamp on
	// through the Room scene — visible as an action on L1 setting
	// power.intent.
	var lampDriven bool
	var marks, events, messages int
	for _, r := range res.Records {
		switch r.Kind {
		case trace.KindMark:
			marks++
		case trace.KindEvent:
			events++
		case trace.KindMessage:
			messages++
		}
		if r.Kind == trace.KindAction && r.Name == "L1" {
			if v, ok := r.Sets["power.intent"]; ok && v == "on" {
				lampDriven = true
			}
		}
	}
	if !lampDriven {
		t.Error("scripted edit did not drive L1 power.intent on")
	}
	if marks < 5 { // run-start, 3x pod-scheduled, script-edit, run-end
		t.Errorf("want >= 5 mark records, got %d", marks)
	}
	if events == 0 || messages == 0 {
		t.Errorf("want events and messages in the trace, got %d events %d messages", events, messages)
	}
}

func TestEngineChaosDeterministic(t *testing.T) {
	reg := testRegistry(t)
	sc := quickScenario()
	sc.Name = "quick-chaos"
	sc.Chaos = &chaos.Plan{
		Name: "drill",
		Seed: 11,
		Events: []chaos.Event{
			{At: 100 * time.Millisecond, Fault: chaos.FaultDrop, Topic: "digibox/#", Rate: 0.5,
				For: 200 * time.Millisecond},
			{At: 150 * time.Millisecond, Fault: chaos.FaultNodeDown, Node: "laptop",
				For: 150 * time.Millisecond},
			{At: 120 * time.Millisecond, Fault: chaos.FaultDropout, Digi: "O1",
				For: 150 * time.Millisecond},
		},
	}
	a, err := Record(reg, sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Record(reg, sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("chaos runs diverged:\n  %s\n  %s", a.Digest, b.Digest)
	}
	if a.Report == nil || a.Report.Injected == 0 {
		t.Fatalf("chaos plan did not inject: %+v", a.Report)
	}
	// The node failure must appear in the trace as evictions followed
	// by re-scheduling on revive.
	var evicted, rescheduled bool
	sawDown := false
	for _, r := range a.Records {
		if r.Kind == trace.KindFault && r.Fault == "node-down" {
			sawDown = true
		}
		if r.Kind == trace.KindMark && r.Detail == "pod-evicted" {
			evicted = true
		}
		if sawDown && r.Kind == trace.KindMark && r.Detail == "pod-scheduled" {
			rescheduled = true
		}
	}
	if !evicted || !rescheduled {
		t.Errorf("node-down fault: evicted=%v rescheduled=%v", evicted, rescheduled)
	}
	// The fault signature must match the live-engine contract format.
	sig := chaos.Signature(a.Records)
	if len(sig) == 0 {
		t.Error("no chaos signature lines in the trace")
	}
}

func TestVerifyDetectsTampering(t *testing.T) {
	reg := testRegistry(t)
	sc := quickScenario()
	res, err := Record(reg, sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(reg, sc, res.Digest); err != nil {
		t.Fatalf("verify against own digest: %v", err)
	}
	if _, err := Verify(reg, sc, "sha256:beef"); err == nil {
		t.Fatal("verify accepted a wrong digest")
	}
}

func TestScenarioYAMLRoundTrip(t *testing.T) {
	sc := quickScenario()
	sc.Chaos = &chaos.Plan{Name: "p", Seed: 3, Events: []chaos.Event{
		{At: 100 * time.Millisecond, Fault: chaos.FaultDropout, Digi: "O1", For: 100 * time.Millisecond},
	}}
	data, err := sc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseScenario(data)
	if err != nil {
		t.Fatalf("parse marshalled scenario: %v\n%s", err, data)
	}
	if back.Name != sc.Name || back.Duration != sc.Duration {
		t.Fatalf("header mismatch: %+v", back)
	}
	if len(back.Digis) != len(sc.Digis) || len(back.Script) != len(sc.Script) {
		t.Fatalf("shape mismatch: %+v", back)
	}
	if back.Digis[2].Attach[1] != "L1" {
		t.Fatalf("attach lost: %+v", back.Digis[2])
	}
	if back.Chaos == nil || back.Chaos.Seed != 3 {
		t.Fatalf("chaos lost: %+v", back.Chaos)
	}
	// Round-tripping must not change the run's behaviour.
	reg := testRegistry(t)
	a, err := Record(reg, sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Record(reg, back)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Fatal("round-tripped scenario produced a different digest")
	}
}

func TestScenarioValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"no name", func(s *Scenario) { s.Name = "" }, "missing scenario name"},
		{"no duration", func(s *Scenario) { s.Duration = 0 }, "duration_ms"},
		{"dup digi", func(s *Scenario) { s.Digis[1].Name = "O1" }, "duplicate name"},
		{"bad attach", func(s *Scenario) { s.Digis[2].Attach = []string{"nope"} }, "not declared"},
		{"bad edit target", func(s *Scenario) { s.Script[0].Name = "nope" }, "not declared"},
		{"edit outside window", func(s *Scenario) { s.Script[0].At = time.Hour }, "outside the run window"},
		{"chaos too long", func(s *Scenario) {
			s.Chaos = &chaos.Plan{Name: "p", Events: []chaos.Event{
				{At: time.Hour, Fault: chaos.FaultDropout, Digi: "O1"}}}
		}, "after the"},
	}
	for _, tc := range cases {
		sc := quickScenario()
		tc.mut(sc)
		err := sc.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want substring %q", tc.name, err, tc.want)
		}
	}
	if err := quickScenario().Validate(); err != nil {
		t.Errorf("valid scenario rejected: %v", err)
	}
}

// archiveBytes packages a run the way dbox record does: its records
// plus the scenario that re-executes them.
func archiveBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	sc, err := res.Scenario.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteArchive(&buf, clock.Epoch, res.Records, sc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestArchiveRoundTrip(t *testing.T) {
	reg := testRegistry(t)
	res, err := Record(reg, quickScenario())
	if err != nil {
		t.Fatal(err)
	}
	data := archiveBytes(t, res)
	ar, err := trace.ParseArchiveBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if ar.Digest != res.Digest {
		t.Fatalf("digest lost in archive: %s vs %s", ar.Digest, res.Digest)
	}
	if len(ar.Records) != len(res.Records) {
		t.Fatalf("records lost: %d vs %d", len(ar.Records), len(res.Records))
	}
	// The stored records' own digest must match the stored digest.
	d, err := trace.Digest(ar.Records)
	if err != nil {
		t.Fatal(err)
	}
	if d != ar.Digest {
		t.Fatalf("archived records hash to %s, digest file says %s", d, ar.Digest)
	}
	// Re-running the archived scenario must reproduce the digest.
	sc, err := ParseScenario(ar.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(reg, sc, ar.Digest); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.ParseArchiveBytes([]byte("not a zip")); err == nil {
		t.Fatal("parsed garbage as an archive")
	}
}

func TestNormalizeDropsObservational(t *testing.T) {
	recs := []trace.Record{
		{Seq: 1, Kind: trace.KindEvent, Name: "O1"},
		{Seq: 2, Kind: trace.KindSpan, Name: "O1", Topic: "t"},
		{Seq: 3, Kind: trace.KindFault, Name: "runtime", Fault: "broker-gap"},
		{Seq: 4, Kind: trace.KindFault, Name: "O1", Type: "chaos", Fault: "dropout"},
		{Seq: 5, Kind: trace.KindAction, Name: "L1"},
	}
	out := trace.Normalize(recs)
	if len(out) != 3 {
		t.Fatalf("want 3 records, got %d: %+v", len(out), out)
	}
	for i, r := range out {
		if r.Seq != uint64(i+1) {
			t.Errorf("record %d: seq %d not renumbered", i, r.Seq)
		}
	}
	if out[1].Fault != "dropout" {
		t.Errorf("chaos fault record dropped: %+v", out[1])
	}
}

func TestDigestChainOrderSensitive(t *testing.T) {
	a := []trace.Record{{Seq: 1, Kind: trace.KindEvent, Name: "A"}, {Seq: 2, Kind: trace.KindEvent, Name: "B"}}
	b := []trace.Record{{Seq: 1, Kind: trace.KindEvent, Name: "B"}, {Seq: 2, Kind: trace.KindEvent, Name: "A"}}
	da, err := trace.Digest(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := trace.Digest(b)
	if err != nil {
		t.Fatal(err)
	}
	if da == db {
		t.Fatal("digest ignores record order")
	}
	empty, err := trace.Digest(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(empty, "sha256:") {
		t.Fatalf("bad digest format: %s", empty)
	}
}

func TestClockOrdering(t *testing.T) {
	c := clock.NewVirtual()
	var got []int
	c.ScheduleAt(10*time.Millisecond, func() { got = append(got, 1) })
	c.ScheduleAt(10*time.Millisecond, func() { got = append(got, 2) })
	c.ScheduleAt(5*time.Millisecond, func() { got = append(got, 0) })
	deadline := clock.Epoch.Add(time.Second)
	for c.Step(deadline) {
	}
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("timers fired out of order: %v", got)
	}
	if c.Elapsed() != 10*time.Millisecond {
		t.Fatalf("clock at %v, want 10ms", c.Elapsed())
	}
}

func TestWriteArchiveToFile(t *testing.T) {
	reg := testRegistry(t)
	res, err := Record(reg, quickScenario())
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/run.zip"
	if err := os.WriteFile(path, archiveBytes(t, res), 0o644); err != nil {
		t.Fatal(err)
	}
	ar, err := trace.LoadArchive(path)
	if err != nil {
		t.Fatal(err)
	}
	if ar.Digest != res.Digest {
		t.Fatal("file round trip lost the digest")
	}
}
