package property

import (
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/model"
	"repro/internal/trace"
)

// Monitor is the one evaluator of scene properties. It consumes trace
// records in log order, rebuilds models from the records of their
// changes, and judges every property on the records' own stamps.
// CheckTrace runs it over a slice; a Checker runs it over a live log.
type Monitor struct {
	state   traceState
	watches []*watch
	report  func(Violation)
	arm     func(deadline time.Duration) clock.Timer // live: a timer per open window
}

// watch is one property's evaluation state.
type watch struct {
	p        *Property
	bad      bool          // Never/Always: inside the disallowed state
	open     bool          // LeadsTo: a window is armed
	deadline time.Duration // LeadsTo: the armed window's deadline
	timer    clock.Timer
}

// stateDetail heads the detail of a Never or Always violation.
var stateDetail = map[Kind]string{Never: "disallowed state reached: ", Always: "required state violated: "}

func newMonitor(props []*Property, report func(Violation), arm func(time.Duration) clock.Timer) *Monitor {
	m := &Monitor{state: traceState{}, report: report, arm: arm}
	for _, p := range props {
		m.watches = append(m.watches, &watch{p: p})
	}
	return m
}

// Feed consumes one record. Its stamp first expires the windows it is
// past the deadline of; a record of a model change then updates the
// model, and each property is judged in the new state.
func (m *Monitor) Feed(r *trace.Record) {
	m.Advance(r.TS)
	if !m.state.apply(r) {
		return
	}
	for _, w := range m.watches {
		switch p := w.p; p.Kind {
		case Never, Always:
			bad := p.Cond.Eval(m.state) == (p.Kind == Never)
			if bad && !w.bad {
				m.report(Violation{Property: p.Name, At: r.TS, Detail: stateDetail[p.Kind] + p.Cond.String()})
			}
			w.bad = bad
		case LeadsTo:
			responded := p.Response.Eval(m.state)
			if w.open && responded {
				w.close()
			} else if !w.open && !responded && p.Trigger.Eval(m.state) {
				w.open, w.deadline = true, r.TS+p.Within
				if m.arm != nil {
					w.timer = m.arm(w.deadline)
				}
			}
		}
	}
}

// Advance expires, in deadline order, each open window whose deadline
// is before at: a response stamped at or before it is in time.
func (m *Monitor) Advance(at time.Duration) {
	for {
		var next *watch
		for _, w := range m.watches {
			if w.open && w.deadline < at && (next == nil || w.deadline < next.deadline) {
				next = w
			}
		}
		if next == nil {
			return
		}
		next.close()
		m.report(Violation{Property: next.p.Name, At: next.deadline,
			Detail: fmt.Sprintf("response %q not reached within %v of trigger %q",
				next.p.Response, next.p.Within, next.p.Trigger)})
	}
}

// close disarms a leads-to window and stops its timer.
func (w *watch) close() {
	w.open = false
	if w.timer != nil {
		w.timer.Stop()
		w.timer = nil
	}
}

// CheckTrace evaluates properties offline against a recorded trace
// (§3.5): the Monitor a live Checker runs, over the trace's records.
// This lets a developer validate a shared experiment without
// re-running the scene.
func CheckTrace(recs []trace.Record, props []*Property) ([]Violation, error) {
	for _, p := range props {
		if err := p.Validate(); err != nil {
			return nil, err
		}
	}
	var out []Violation
	m := newMonitor(props, func(v Violation) { out = append(out, v) }, nil)
	for i := range recs {
		m.Feed(&recs[i])
	}
	return out, nil
}

// traceState holds the model documents the records rebuild.
type traceState map[string]model.Doc

func (ts traceState) GetModel(name string) (model.Doc, bool) {
	d, ok := ts[name]
	return d, ok
}

// apply updates a model from a record of its change, reporting whether
// r was one: an action, or the event a digi logs just before it commits
// its fields, to a "target" child for a scene. The child's own action
// comes a queue hop later; the event keeps the scene's writes first.
func (ts traceState) apply(r *trace.Record) bool {
	name, sets := r.Name, r.Sets
	switch r.Kind {
	case trace.KindEvent:
		sets = r.Fields
		if target, ok := sets["target"].(string); ok {
			name = target
		}
	case trace.KindAction:
	default:
		return false
	}
	d, ok := ts[name]
	if !ok {
		d = model.Doc{}
		ts[name] = d
	}
	for path, v := range sets {
		if r.Kind == trace.KindAction || path != "target" && path != "target_type" {
			d.Set(path, v)
		}
	}
	for _, path := range r.Deletes {
		d.Delete(path)
	}
	return true
}
