package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/property"
)

func TestRunTestCasePassAndFail(t *testing.T) {
	tb := newTestbed(t, Options{})
	buildMeetingRoom(t, tb)

	// §3.3 input-output pair: scene status in, expected mock status out.
	pass := TestCase{
		Name:  "presence-triggers-sensor",
		Input: map[string]map[string]any{"MeetingRoom": {"human_presence": true}},
		Expect: property.Condition{
			{Model: "O1", Path: "triggered", Op: property.Eq, Value: true},
			{Model: "L1", Path: "power.status", Op: property.Eq, Value: "on"},
		},
	}
	if err := tb.RunTestCase(pass); err != nil {
		t.Fatal(err)
	}
	// Event generation on the input scene was paused.
	d, _ := tb.Check("MeetingRoom")
	if d.Managed() {
		t.Error("input scene still managed during test case")
	}

	fail := TestCase{
		Name:  "impossible",
		Input: map[string]map[string]any{"MeetingRoom": {"human_presence": true}},
		Expect: property.Condition{
			{Model: "O1", Path: "triggered", Op: property.Eq, Value: false},
		},
		Within: 200 * time.Millisecond,
	}
	err := tb.RunTestCase(fail)
	if err == nil {
		t.Fatal("impossible expectation passed")
	}
	if !strings.Contains(err.Error(), "got true") {
		t.Errorf("failure message not actionable: %v", err)
	}
}

func TestRunTestCaseValidation(t *testing.T) {
	tb := newTestbed(t, Options{})
	if err := tb.RunTestCase(TestCase{}); err == nil {
		t.Error("nameless case accepted")
	}
	if err := tb.RunTestCase(TestCase{Name: "x"}); err == nil {
		t.Error("expectation-less case accepted")
	}
	err := tb.RunTestCase(TestCase{
		Name:   "ghost-input",
		Input:  map[string]map[string]any{"ghost": {"a": 1}},
		Expect: property.Condition{{Model: "ghost", Path: "a", Op: property.Eq, Value: 1}},
	})
	if err == nil {
		t.Error("missing input model accepted")
	}
}

func TestRunTestCasesSequence(t *testing.T) {
	tb := newTestbed(t, Options{})
	buildMeetingRoom(t, tb)
	cases := []TestCase{
		{
			Name:  "enter",
			Input: map[string]map[string]any{"MeetingRoom": {"human_presence": true}},
			Expect: property.Condition{
				{Model: "O1", Path: "triggered", Op: property.Eq, Value: true},
			},
		},
		{
			Name:  "leave",
			Input: map[string]map[string]any{"MeetingRoom": {"human_presence": false}},
			Expect: property.Condition{
				{Model: "O1", Path: "triggered", Op: property.Eq, Value: false},
				{Model: "L1", Path: "power.status", Op: property.Eq, Value: "off"},
			},
		},
	}
	for _, tc := range cases {
		if err := tb.RunTestCase(tc); err != nil {
			t.Fatal(err)
		}
	}
	// A failing case names itself in the error.
	err := tb.RunTestCase(TestCase{
		Name:   "bad",
		Expect: property.Condition{{Model: "O1", Path: "nope", Op: property.Exists}},
		Within: 100 * time.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "bad") {
		t.Errorf("err = %v", err)
	}
}

func TestRunTestCaseAbsentPathMessage(t *testing.T) {
	tb := newTestbed(t, Options{})
	tb.Run("Lamp", "L1", nil)
	err := tb.RunTestCase(TestCase{
		Name:   "absent",
		Expect: property.Condition{{Model: "L1", Path: "missing.path", Op: property.Eq, Value: 1}},
		Within: 100 * time.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "absent") {
		t.Errorf("err = %v", err)
	}
	err = tb.RunTestCase(TestCase{
		Name:   "no-model",
		Expect: property.Condition{{Model: "nope", Path: "x", Op: property.Eq, Value: 1}},
		Within: 100 * time.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "does not exist") {
		t.Errorf("err = %v", err)
	}
}
