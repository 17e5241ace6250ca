package property

import (
	"strings"
	"testing"
	"time"

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

func newCheckedStore(t *testing.T) (*model.Store, *trace.Log, *Checker) {
	t.Helper()
	store := model.NewStore()
	lamp := model.Doc{}
	lamp.SetMeta(model.Meta{Type: "Lamp", Name: "L1"})
	lamp.Set("power.status", "off")
	occ := model.Doc{}
	occ.SetMeta(model.Meta{Type: "Occupancy", Name: "O1"})
	occ.Set("triggered", false)
	if err := store.Create(lamp); err != nil {
		t.Fatal(err)
	}
	if err := store.Create(occ); err != nil {
		t.Fatal(err)
	}
	log := trace.NewLog()
	ch := NewChecker(store, log)
	return store, log, ch
}

func waitViolations(t *testing.T, c *Checker, n int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(c.Violations()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s (have %d violations)", what, len(c.Violations()))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// holds asserts cond stays true for the whole window, failing at the
// first observed violation instead of sleeping blind and sampling once.
func holds(t *testing.T, window time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(window)
	for time.Now().Before(deadline) {
		if !cond() {
			t.Fatalf("%s violated", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestCheckerNeverViolation(t *testing.T) {
	store, log, ch := newCheckedStore(t)
	if err := ch.Add(paperProperty()); err != nil {
		t.Fatal(err)
	}
	ch.Start()
	defer ch.Stop()

	// Legal transition: occupied then lamp on.
	store.Patch("O1", map[string]any{"triggered": true})
	store.Patch("L1", map[string]any{"power": map[string]any{"status": "on"}})
	holds(t, 80*time.Millisecond, func() bool {
		return len(ch.Violations()) == 0
	}, "no violation on legal state")

	// Sensor clears while lamp stays on: disallowed state.
	store.Patch("O1", map[string]any{"triggered": false})
	waitViolations(t, ch, 1, "disallowed state")
	v := ch.Violations()[0]
	if v.Property != "lamp-off-when-unoccupied" {
		t.Errorf("violation = %+v", v)
	}
	if len(log.Violations()) != 1 {
		t.Errorf("trace log has %d violations", len(log.Violations()))
	}
}

func TestCheckerEdgeTriggeredReporting(t *testing.T) {
	store, _, ch := newCheckedStore(t)
	ch.Add(paperProperty())
	ch.Start()
	defer ch.Stop()

	store.Patch("L1", map[string]any{"power": map[string]any{"status": "on"}})
	waitViolations(t, ch, 1, "first violation")
	// More commits while still in the bad state must not re-report.
	store.Patch("L1", map[string]any{"note": "still bad"})
	store.Patch("L1", map[string]any{"note2": "still bad"})
	holds(t, 100*time.Millisecond, func() bool {
		return len(ch.Violations()) == 1
	}, "no re-report while the bad state persists")
	// Leaving and re-entering the bad state reports again. The checker
	// samples current store state on wake-up, so it must get a chance to
	// observe the off state before we flip back — this sleep creates the
	// intermediate state, it is not a synchronization wait.
	store.Patch("L1", map[string]any{"power": map[string]any{"status": "off"}})
	//dbox:allow sleepytest -- creates the intermediate off state; the checker exposes nothing to poll for having sampled it
	time.Sleep(50 * time.Millisecond)
	store.Patch("L1", map[string]any{"power": map[string]any{"status": "on"}})
	waitViolations(t, ch, 2, "re-entry violation")
}

func TestCheckerAlways(t *testing.T) {
	store, _, ch := newCheckedStore(t)
	ch.Add(&Property{
		Name: "sensor-must-exist",
		Kind: Always,
		Cond: Condition{{Model: "O1", Path: "triggered", Op: Exists}},
	})
	ch.Start()
	defer ch.Stop()
	store.Apply("O1", func(d model.Doc) error {
		d.Delete("triggered")
		return nil
	})
	waitViolations(t, ch, 1, "always violation")
}

func TestCheckerLeadsToSatisfied(t *testing.T) {
	store, _, ch := newCheckedStore(t)
	ch.Add(&Property{
		Name:     "lamp-follows-occupancy",
		Kind:     LeadsTo,
		Within:   200 * time.Millisecond,
		Trigger:  Condition{{Model: "O1", Path: "triggered", Op: Eq, Value: true}},
		Response: Condition{{Model: "L1", Path: "power.status", Op: Eq, Value: "on"}},
	})
	ch.Start()
	defer ch.Stop()
	store.Patch("O1", map[string]any{"triggered": true})
	//dbox:allow sleepytest -- simulates response latency inside the Within window; there is no condition to poll
	time.Sleep(30 * time.Millisecond)
	store.Patch("L1", map[string]any{"power": map[string]any{"status": "on"}})
	// Hold past the Within deadline: a checker that missed the response
	// would report exactly when the obligation expires.
	holds(t, 300*time.Millisecond, func() bool {
		return len(ch.Violations()) == 0
	}, "satisfied leads-to stays violation-free")
}

func TestCheckerLeadsToExpires(t *testing.T) {
	store, _, ch := newCheckedStore(t)
	ch.Add(&Property{
		Name:     "lamp-follows-occupancy",
		Kind:     LeadsTo,
		Within:   60 * time.Millisecond,
		Trigger:  Condition{{Model: "O1", Path: "triggered", Op: Eq, Value: true}},
		Response: Condition{{Model: "L1", Path: "power.status", Op: Eq, Value: "on"}},
	})
	ch.Start()
	defer ch.Stop()
	store.Patch("O1", map[string]any{"triggered": true})
	waitViolations(t, ch, 1, "expired response window")
}

func TestCheckerAddValidation(t *testing.T) {
	_, _, ch := newCheckedStore(t)
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

// A started checker opens its store watch with its first property, and
// a restarted one picks up the properties it already has.
func TestCheckerWatchesFromFirstProperty(t *testing.T) {
	store, _, ch := newCheckedStore(t)
	ch.Start()
	defer ch.Stop()
	if ch.watcher != nil {
		t.Fatal("a checker with no property watches the store")
	}
	if err := ch.Add(paperProperty()); err != nil {
		t.Fatal(err)
	}
	if ch.watcher == nil {
		t.Fatal("the first property started no watch")
	}
	ch.Stop()
	ch.Start()
	store.Patch("L1", map[string]any{"power": map[string]any{"status": "on"}})
	waitViolations(t, ch, 1, "violation after restart")
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
	if vs[0].At.Sub(time.Unix(0, 0)) != 2*time.Second {
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
}

func TestCheckTraceValidates(t *testing.T) {
	if _, err := CheckTrace(nil, []*Property{{Name: "bad", Kind: Never}}); err == nil {
		t.Error("invalid property accepted")
	}
}
