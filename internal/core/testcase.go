package core

import (
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/model"
	"repro/internal/property"
)

// TestCase is an input/expected-output pair over the testbed, the
// §3.3 testing workflow: "developers can pause event generation in the
// scene ... and add input-output pairs (i.e., scene status and the
// expected mock status)".
type TestCase struct {
	Name string
	// Input merge-patches are applied per model (typically scene
	// status, e.g. {"MeetingRoom": {"human_presence": true}}).
	Input map[string]map[string]any
	// Expect must hold within Within (typically mock status, e.g.
	// O1.triggered == true).
	Expect property.Condition
	// Within bounds convergence; default 5s.
	Within time.Duration
	// KeepManaged leaves event generation running during the case.
	// The default pauses every Input model first, so random events
	// cannot race the asserted outputs.
	KeepManaged bool
}

// RunTestCase executes one input/expected-output pair: pause the input
// models' event generators, apply the inputs, and wait for the
// expected condition. On timeout the error describes which terms of
// the expectation failed.
//
//dbox:allow deadcode -- the §3.3 test-case verb; this package's tests drive it
func (tb *Testbed) RunTestCase(tc TestCase) error {
	if tc.Name == "" {
		return fmt.Errorf("core: test case needs a name")
	}
	if len(tc.Expect) == 0 {
		return fmt.Errorf("core: test case %q has no expectation", tc.Name)
	}
	within := tc.Within
	if within <= 0 {
		within = 5 * time.Second
	}
	if !tc.KeepManaged {
		for name := range tc.Input {
			if !tb.Store.Has(name) {
				return fmt.Errorf("core: test case %q: input model %q not found", tc.Name, name)
			}
			if _, err := tb.Store.Apply(name, func(d *model.Draft) error {
				d.Set("meta.managed", false)
				return nil
			}); err != nil {
				return err
			}
		}
	}
	for name, patch := range tc.Input {
		if err := tb.Edit(name, patch); err != nil {
			return fmt.Errorf("core: test case %q: input %s: %w", tc.Name, name, err)
		}
	}
	state := storeState{tb.Store}
	d := clock.NewDeadline(tb.clk, within, tb.opts.ReadyTimeout)
	for !tc.Expect.Eval(state) {
		if !d.Poll() {
			return fmt.Errorf("core: test case %q failed: %s",
				tc.Name, describeFailure(tc.Expect, state))
		}
	}
	return nil
}

// storeState evaluates conditions against the live models.
type storeState struct{ *model.Store }

func (s storeState) GetModel(name string) (model.Doc, bool) {
	d, _, ok := s.Get(name)
	return d, ok
}

// describeFailure reports the first unmet terms of a condition with
// the actual values, for actionable test-case failures.
func describeFailure(cond property.Condition, state property.State) string {
	for _, term := range cond {
		single := property.Condition{term}
		if single.Eval(state) {
			continue
		}
		doc, ok := state.GetModel(term.Model)
		if !ok {
			return fmt.Sprintf("expected %s, but model %q does not exist", term, term.Model)
		}
		actual, has := doc.Get(term.Path)
		if !has {
			return fmt.Sprintf("expected %s, but path is absent", term)
		}
		return fmt.Sprintf("expected %s, got %v", term, actual)
	}
	return "condition not satisfied"
}
