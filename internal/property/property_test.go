package property

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/model"
	"repro/internal/trace"
)

type mapState map[string]model.Doc

func (m mapState) GetModel(name string) (model.Doc, bool) {
	d, ok := m[name]
	return d, ok
}

func lampState(power string, triggered bool) mapState {
	lamp := model.Doc{}
	lamp.Set("power.status", power)
	occ := model.Doc{}
	occ.Set("triggered", triggered)
	return mapState{"L1": lamp, "O1": occ}
}

func TestTermEval(t *testing.T) {
	st := mapState{"M": model.Doc{"n": int64(5), "s": "on", "b": true, "f": 2.5}}
	cases := []struct {
		term Term
		want bool
	}{
		{Term{"M", "s", Eq, "on"}, true},
		{Term{"M", "s", Ne, "off"}, true},
		{Term{"M", "n", Eq, 5}, true}, // int/int64 tolerance
		{Term{"M", "n", Lt, 6}, true},
		{Term{"M", "n", Le, 5}, true},
		{Term{"M", "n", Gt, 5}, false},
		{Term{"M", "n", Ge, 5}, true},
		{Term{"M", "f", Lt, 3}, true},
		{Term{"M", "b", Eq, true}, true},
		{Term{"M", "missing", Exists, nil}, false},
		{Term{"M", "n", Exists, nil}, true},
		{Term{"M", "missing", Absent, nil}, true},
		{Term{"Ghost", "x", Absent, nil}, true},
		{Term{"Ghost", "x", Eq, 1}, false},
		{Term{"M", "s", Lt, 5}, false}, // non-numeric comparison
		{Term{"M", "missing", Eq, 1}, false},
	}
	for _, c := range cases {
		if got := c.term.eval(st); got != c.want {
			t.Errorf("%v = %v, want %v", c.term, got, c.want)
		}
	}
}

// A term may compare a whole subtree: a map or a list is compared by
// value, where == would panic on the uncomparable type.
func TestTermEvalComparesSubtrees(t *testing.T) {
	st := mapState{"L1": model.Doc{"power": map[string]any{"status": "on"}, "tags": []any{"a"}}}
	if !(Term{"L1", "power", Eq, map[string]any{"status": "on"}}).eval(st) {
		t.Error("equal maps compare unequal")
	}
	if !(Term{"L1", "tags", Ne, []any{"b"}}).eval(st) {
		t.Error("different lists compare equal")
	}
}

func TestConditionConjunction(t *testing.T) {
	st := lampState("on", true)
	cond := Condition{
		{Model: "L1", Path: "power.status", Op: Eq, Value: "on"},
		{Model: "O1", Path: "triggered", Op: Eq, Value: true},
	}
	if !cond.Eval(st) {
		t.Error("conjunction should hold")
	}
	cond[1].Value = false
	if cond.Eval(st) {
		t.Error("conjunction should fail")
	}
	if !(Condition{}).Eval(st) {
		t.Error("empty condition is true")
	}
	if s := cond.String(); !strings.Contains(s, "&&") {
		t.Errorf("String = %q", s)
	}
}

func TestPropertyValidate(t *testing.T) {
	good := []*Property{
		{Name: "p1", Kind: Never, Cond: Condition{{Model: "M", Path: "x", Op: Eq, Value: 1}}},
		{Name: "p2", Kind: Always, Cond: Condition{{Model: "M", Path: "x", Op: Exists}}},
		{Name: "p3", Kind: LeadsTo, Within: time.Second,
			Trigger:  Condition{{Model: "M", Path: "x", Op: Eq, Value: 1}},
			Response: Condition{{Model: "M", Path: "y", Op: Eq, Value: 1}}},
	}
	for _, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
	bad := []*Property{
		{Name: "", Kind: Never, Cond: Condition{{Model: "M", Path: "x", Op: Eq}}},
		{Name: "x", Kind: Never},
		{Name: "x", Kind: LeadsTo, Within: time.Second},
		{Name: "x", Kind: LeadsTo,
			Trigger:  Condition{{Model: "M", Path: "x", Op: Eq}},
			Response: Condition{{Model: "M", Path: "y", Op: Eq}}},
		{Name: "x", Kind: "bogus"},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad[%d] validated", i)
		}
	}
}

// The paper's example: "the lamp should always be turned off when the
// occupancy sensor is not triggered", as a disallowed state.
func paperProperty() *Property {
	return &Property{
		Name: "lamp-off-when-unoccupied",
		Kind: Never,
		Cond: Condition{
			{Model: "O1", Path: "triggered", Op: Eq, Value: false},
			{Model: "L1", Path: "power.status", Op: Eq, Value: "on"},
		},
	}
}

// newCheckedLog starts a trace log on a virtual clock, holding a lamp
// that is off and a clear occupancy sensor, and a checker over it.
func newCheckedLog(t *testing.T) (*clock.Virtual, *trace.Log, *Checker) {
	t.Helper()
	v := clock.NewVirtual()
	log := trace.NewLogAt(v.Now)
	log.Action("L1", "Lamp", map[string]any{"power.status": "off"}, nil)
	log.Action("O1", "Occupancy", map[string]any{"triggered": false}, nil)
	return v, log, NewChecker(log, v)
}

// waitViolations waits for the checker's nth violation. A violation is
// logged after it is counted, so the log's next append wakes the wait.
func waitViolations(t *testing.T, log *trace.Log, c *Checker, n int, what string) {
	t.Helper()
	timeout := time.After(5 * time.Second)
	for {
		seen := log.Len()
		if len(c.Violations()) >= n {
			return
		}
		select {
		case <-log.Wait(seen):
		case <-timeout:
			t.Fatalf("timeout waiting for %s (have %d violations)", what, len(c.Violations()))
		}
	}
}

// settle returns once the checker has judged every record logged so
// far; on a virtual clock nothing else moves until the test does.
func settle(t *testing.T, log *trace.Log, c *Checker) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.next.Load() < int64(log.Len()) {
		if time.Now().After(deadline) {
			t.Fatalf("checker read %d of %d records", c.next.Load(), log.Len())
		}
		runtime.Gosched()
	}
}

func TestCheckerNeverViolation(t *testing.T) {
	_, log, ch := newCheckedLog(t)
	if err := ch.Add(paperProperty()); err != nil {
		t.Fatal(err)
	}
	ch.Start()
	defer ch.Stop()

	// Legal transition: occupied then lamp on.
	log.Action("O1", "Occupancy", map[string]any{"triggered": true}, nil)
	log.Action("L1", "Lamp", map[string]any{"power.status": "on"}, nil)
	settle(t, log, ch)
	if len(ch.Violations()) != 0 {
		t.Fatal("no violation on legal state violated")
	}

	// Sensor clears while lamp stays on: disallowed state.
	bad := log.Append(trace.Record{Kind: trace.KindAction, Name: "O1", Sets: map[string]any{"triggered": false}})
	waitViolations(t, log, ch, 1, "disallowed state")
	v := ch.Violations()[0]
	if v.Property != "lamp-off-when-unoccupied" || v.At != bad.TS {
		t.Errorf("violation = %+v", v)
	}
	if len(log.Violations()) != 1 {
		t.Errorf("trace log has %d violations", len(log.Violations()))
	}
}

func TestCheckerEdgeTriggeredReporting(t *testing.T) {
	_, log, ch := newCheckedLog(t)
	ch.Add(paperProperty())
	ch.Start()
	defer ch.Stop()

	log.Action("L1", "Lamp", map[string]any{"power.status": "on"}, nil)
	waitViolations(t, log, ch, 1, "first violation")
	// More commits while still in the bad state must not re-report.
	log.Action("L1", "Lamp", map[string]any{"note": "still bad"}, nil)
	log.Action("L1", "Lamp", map[string]any{"note2": "still bad"}, nil)
	settle(t, log, ch)
	if len(ch.Violations()) != 1 {
		t.Fatal("no re-report while the bad state persists violated")
	}
	// Leaving and re-entering the bad state reports again. The checker
	// judges every record, so the off state needs no time to be seen.
	log.Action("L1", "Lamp", map[string]any{"power.status": "off"}, nil)
	log.Action("L1", "Lamp", map[string]any{"power.status": "on"}, nil)
	waitViolations(t, log, ch, 2, "re-entry violation")
}

func TestCheckerAlways(t *testing.T) {
	_, log, ch := newCheckedLog(t)
	ch.Add(&Property{
		Name: "sensor-must-exist",
		Kind: Always,
		Cond: Condition{{Model: "O1", Path: "triggered", Op: Exists}},
	})
	ch.Start()
	defer ch.Stop()
	log.Action("O1", "Occupancy", nil, []string{"triggered"})
	waitViolations(t, log, ch, 1, "always violation")
}

func TestCheckerLeadsToSatisfied(t *testing.T) {
	v, log, ch := newCheckedLog(t)
	ch.Add(&Property{
		Name:     "lamp-follows-occupancy",
		Kind:     LeadsTo,
		Within:   200 * time.Millisecond,
		Trigger:  Condition{{Model: "O1", Path: "triggered", Op: Eq, Value: true}},
		Response: Condition{{Model: "L1", Path: "power.status", Op: Eq, Value: "on"}},
	})
	ch.Start()
	defer ch.Stop()
	log.Action("O1", "Occupancy", map[string]any{"triggered": true}, nil)
	// The response comes 30 ms later, inside the Within window.
	v.AdvanceTo(clock.Epoch.Add(30 * time.Millisecond))
	log.Action("L1", "Lamp", map[string]any{"power.status": "on"}, nil)
	// Hold past the Within deadline: a checker that missed the response
	// would report exactly when the obligation expires.
	for v.Step(clock.Epoch.Add(300 * time.Millisecond)) {
	}
	v.AdvanceTo(clock.Epoch.Add(300 * time.Millisecond))
	log.Action("O1", "Occupancy", map[string]any{"note": "later"}, nil)
	settle(t, log, ch)
	if len(ch.Violations()) != 0 {
		t.Fatal("satisfied leads-to stays violation-free violated")
	}
	if at, armed := v.NextAt(); armed {
		t.Errorf("a closed window left a timer armed at %v", at)
	}
}

func TestCheckerLeadsToExpires(t *testing.T) {
	v, log, ch := newCheckedLog(t)
	ch.Add(&Property{
		Name:     "lamp-follows-occupancy",
		Kind:     LeadsTo,
		Within:   60 * time.Millisecond,
		Trigger:  Condition{{Model: "O1", Path: "triggered", Op: Eq, Value: true}},
		Response: Condition{{Model: "L1", Path: "power.status", Op: Eq, Value: "on"}},
	})
	ch.Start()
	defer ch.Stop()
	log.Action("O1", "Occupancy", map[string]any{"triggered": true}, nil)
	settle(t, log, ch)
	// The open window armed one timer, just past its deadline; with the
	// log quiet, only that timer can expire it.
	at, armed := v.NextAt()
	if !armed || at != clock.Epoch.Add(60*time.Millisecond+time.Nanosecond) {
		t.Fatalf("window timer = %v, %v", at, armed)
	}
	v.Step(at)
	waitViolations(t, log, ch, 1, "expired response window")
	if got := ch.Violations()[0].At; got != 60*time.Millisecond {
		t.Errorf("violation at %v, want the deadline", got)
	}
}

// An unpaced clock moves only when a timer fires, so a window's own
// timer would carry it to the deadline: there the checker arms none,
// and the first record stamped past the deadline expires the window.
func TestUnpacedClockExpiresWindowsOnRecords(t *testing.T) {
	s := clock.NewScaled(clock.SpeedMax, nil)
	log := trace.NewLogAt(s.Now)
	ch := NewChecker(log, s)
	ch.Add(&Property{
		Name:     "lamp-follows-occupancy",
		Kind:     LeadsTo,
		Within:   time.Second,
		Trigger:  Condition{{Model: "O1", Path: "triggered", Op: Eq, Value: true}},
		Response: Condition{{Model: "L1", Path: "power.status", Op: Eq, Value: "on"}},
	})
	ch.Start()
	defer ch.Stop()
	log.Action("O1", "Occupancy", map[string]any{"triggered": true}, nil)
	settle(t, log, ch)
	if at, armed := s.NextAt(); armed {
		t.Fatalf("an unpaced clock got a window timer at %v", at)
	}
	s.AdvanceTo(clock.Epoch.Add(5 * time.Second))
	log.Action("O1", "Occupancy", map[string]any{"note": "later"}, nil)
	waitViolations(t, log, ch, 1, "window expired by a later record")
	if got := ch.Violations()[0].At; got != time.Second {
		t.Errorf("violation at %v, want the deadline", got)
	}
}

func TestCheckerAddValidation(t *testing.T) {
	_, _, ch := newCheckedLog(t)
	if err := ch.Add(&Property{Name: "x", Kind: Never}); err == nil {
		t.Error("invalid property accepted")
	}
	if err := ch.Add(paperProperty()); err != nil {
		t.Fatal(err)
	}
	if err := ch.Add(paperProperty()); err == nil {
		t.Error("duplicate property accepted")
	}
}

// A started checker starts its goroutine with its first property, and
// a restarted one picks up the properties it already has. No property
// and no open window arm a timer.
func TestCheckerWatchesFromFirstProperty(t *testing.T) {
	v, log, ch := newCheckedLog(t)
	ch.Start()
	defer ch.Stop()
	if ch.stop != nil {
		t.Fatal("a checker with no property runs a goroutine")
	}
	if err := ch.Add(paperProperty()); err != nil {
		t.Fatal(err)
	}
	if ch.stop == nil {
		t.Fatal("the first property started no goroutine")
	}
	ch.Stop()
	ch.Start()
	log.Action("L1", "Lamp", map[string]any{"power.status": "on"}, nil)
	waitViolations(t, log, ch, 1, "violation after restart")
	if at, armed := v.NextAt(); armed {
		t.Errorf("a checker with no open window armed a timer at %v", at)
	}
}

// A property added mid-run judges the run from the log's first record,
// as CheckTrace does over the same records.
func TestLatePropertyJudgesTheRunFromItsStart(t *testing.T) {
	v, log, ch := newCheckedLog(t)
	ch.Add(&Property{
		Name: "lamp-never-broken",
		Kind: Never,
		Cond: Condition{{Model: "L1", Path: "power.status", Op: Eq, Value: "broken"}},
	})
	ch.Start()
	defer ch.Stop()
	v.AdvanceTo(clock.Epoch.Add(time.Second))
	log.Action("L1", "Lamp", map[string]any{"power.status": "on"}, nil)
	v.AdvanceTo(clock.Epoch.Add(2 * time.Second))
	log.Action("L1", "Lamp", map[string]any{"power.status": "off"}, nil)
	settle(t, log, ch)
	if err := ch.Add(paperProperty()); err != nil {
		t.Fatal(err)
	}
	waitViolations(t, log, ch, 1, "violation before the property was added")
	settle(t, log, ch)
	want, _ := CheckTrace(log.Records(), ch.PropertyList())
	if got := ch.Violations(); !reflect.DeepEqual(got, want) || got[0].At != time.Second {
		t.Errorf("live %+v, offline %+v", got, want)
	}
}

// buildTrace assembles action records with explicit timestamps.
func buildTrace(steps []struct {
	ts   time.Duration
	name string
	sets map[string]any
}) []trace.Record {
	recs := make([]trace.Record, 0, len(steps))
	for i, s := range steps {
		recs = append(recs, trace.Record{
			Seq: uint64(i + 1), TS: s.ts, Kind: trace.KindAction,
			Name: s.name, Sets: s.sets,
		})
	}
	return recs
}

func TestCheckTraceNever(t *testing.T) {
	recs := buildTrace([]struct {
		ts   time.Duration
		name string
		sets map[string]any
	}{
		{0, "O1", map[string]any{"triggered": true}},
		{time.Second, "L1", map[string]any{"power.status": "on"}},
		{2 * time.Second, "O1", map[string]any{"triggered": false}}, // bad
		{3 * time.Second, "L1", map[string]any{"power.status": "off"}},
	})
	vs, err := CheckTrace(recs, []*Property{paperProperty()})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 {
		t.Fatalf("violations = %+v", vs)
	}
	if vs[0].At != 2*time.Second {
		t.Errorf("violation at %v", vs[0].At)
	}
}

func TestCheckTraceLeadsTo(t *testing.T) {
	prop := &Property{
		Name:     "resp",
		Kind:     LeadsTo,
		Within:   time.Second,
		Trigger:  Condition{{Model: "O1", Path: "triggered", Op: Eq, Value: true}},
		Response: Condition{{Model: "L1", Path: "power.status", Op: Eq, Value: "on"}},
	}
	// Response arrives in 500ms: no violation.
	ok := buildTrace([]struct {
		ts   time.Duration
		name string
		sets map[string]any
	}{
		{0, "O1", map[string]any{"triggered": true}},
		{500 * time.Millisecond, "L1", map[string]any{"power.status": "on"}},
	})
	vs, err := CheckTrace(ok, []*Property{prop})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("violations = %+v", vs)
	}
	// A response stamped at the deadline itself is in time.
	ok[1].TS = time.Second
	if vs, _ := CheckTrace(ok, []*Property{prop}); len(vs) != 0 {
		t.Fatalf("response at the deadline: violations = %+v", vs)
	}
	// Response arrives after 2s: violation.
	late := buildTrace([]struct {
		ts   time.Duration
		name string
		sets map[string]any
	}{
		{0, "O1", map[string]any{"triggered": true}},
		{2 * time.Second, "L1", map[string]any{"power.status": "on"}},
	})
	vs, err = CheckTrace(late, []*Property{prop})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 {
		t.Fatalf("violations = %+v", vs)
	}
}

func TestCheckTraceLeadsToPendingAtEnd(t *testing.T) {
	prop := &Property{
		Name:     "resp",
		Kind:     LeadsTo,
		Within:   time.Second,
		Trigger:  Condition{{Model: "O1", Path: "triggered", Op: Eq, Value: true}},
		Response: Condition{{Model: "L1", Path: "power.status", Op: Eq, Value: "on"}},
	}
	recs := buildTrace([]struct {
		ts   time.Duration
		name string
		sets map[string]any
	}{
		{0, "O1", map[string]any{"triggered": true}},
		{5 * time.Second, "O1", map[string]any{"noise": 1}},
	})
	vs, err := CheckTrace(recs, []*Property{prop})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 {
		t.Fatalf("violations = %+v", vs)
	}
	if vs[0].At != time.Second {
		t.Errorf("expired window stamped %v, want its deadline", vs[0].At)
	}
}

// A scene logs each write to a child as an event naming the target
// before it commits it; the child logs its own action a queue hop
// later, after a sibling may already have reacted. The monitor applies
// the event, so the scene's writes come first.
func TestCheckTraceReadsSceneWrites(t *testing.T) {
	recs := []trace.Record{
		{Seq: 1, Kind: trace.KindAction, Name: "O1", Sets: map[string]any{"triggered": false}},
		{Seq: 2, Kind: trace.KindEvent, Name: "R1", Fields: map[string]any{"target": "L1", "target_type": "Lamp", "power.intent": "on"}},
		{Seq: 3, Kind: trace.KindEvent, Name: "R1", Fields: map[string]any{"target": "O1", "target_type": "Occupancy", "triggered": true}},
		{Seq: 4, Kind: trace.KindAction, Name: "L1", Sets: map[string]any{"power.intent": "on"}},
		{Seq: 5, Kind: trace.KindAction, Name: "L1", Sets: map[string]any{"power.status": "on"}},
		{Seq: 6, Kind: trace.KindAction, Name: "O1", Sets: map[string]any{"triggered": true}},
		// An event generator's own firing is a write to its own model.
		{Seq: 7, TS: time.Second, Kind: trace.KindEvent, Name: "O1", Fields: map[string]any{"triggered": false}},
	}
	vs, err := CheckTrace(recs, []*Property{paperProperty()})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0].At != time.Second {
		t.Fatalf("violations = %+v, want one, at the generator's firing", vs)
	}
}

func TestCheckTraceValidates(t *testing.T) {
	if _, err := CheckTrace(nil, []*Property{{Name: "bad", Kind: Never}}); err == nil {
		t.Error("invalid property accepted")
	}
}
