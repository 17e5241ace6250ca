// Package property implements Digibox's scene-property checking
// (§3.3): developers declare conditions over model states — e.g. "the
// lamp must be off whenever the occupancy sensor is not triggered" —
// and Digibox evaluates them at run time, reporting violations to the
// trace log.
//
// The paper's shipped mechanism is disallowed model states expressed
// as k-v pairs; it names temporal-logic support (as in AutoTap [53])
// as in-progress work. This package implements both: state properties
// (Never/Always over a conjunction of terms) and a bounded "leads-to"
// temporal operator (trigger ⇒ response within d), which is the
// fragment of LTL bounded-response that run-time monitoring can check
// without lookahead.
//
// One Monitor judges properties over trace records, on the trace's
// own timeline: CheckTrace runs it over a recorded trace, and a live
// Checker over the testbed's growing log, so live and offline verdicts
// agree at any speed. The monitor sees what the trace records: every
// running digi's own-model change, coalesced updates included, stamped
// when its digi logs it, and the writes a digi logs as events just
// before it commits them. A model that StopDigi deletes keeps its last
// recorded state.
package property

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/model"
	"repro/internal/trace"
)

// Op is a term comparison operator.
type Op string

const (
	Eq     Op = "=="
	Ne     Op = "!="
	Lt     Op = "<"
	Le     Op = "<="
	Gt     Op = ">"
	Ge     Op = ">="
	Exists Op = "exists"
	Absent Op = "absent"
)

// Term is one comparison over a model path: "<model>.<path> <op> <value>".
type Term struct {
	Model string // model instance name, e.g. "L1"
	Path  string // dotted path within the model, e.g. "power.status"
	Op    Op
	Value any // comparison operand (ignored for Exists/Absent)
}

func (t Term) String() string {
	switch t.Op {
	case Exists, Absent:
		return fmt.Sprintf("%s.%s %s", t.Model, t.Path, t.Op)
	default:
		return fmt.Sprintf("%s.%s %s %v", t.Model, t.Path, t.Op, t.Value)
	}
}

// Condition is a conjunction of terms. An empty condition is true.
type Condition []Term

func (c Condition) String() string {
	parts := make([]string, len(c))
	for i, t := range c {
		parts[i] = t.String()
	}
	return strings.Join(parts, " && ")
}

// State resolves model snapshots during evaluation.
type State interface {
	GetModel(name string) (model.Doc, bool)
}

// Eval reports whether the condition holds in the given state.
func (c Condition) Eval(s State) bool {
	for _, t := range c {
		if !t.eval(s) {
			return false
		}
	}
	return true
}

func (t Term) eval(s State) bool {
	doc, has := s.GetModel(t.Model)
	var v any
	if has {
		v, has = doc.Get(t.Path)
	}
	if t.Op == Exists || t.Op == Absent {
		return has == (t.Op == Exists)
	}
	a, aok := toFloat(v)
	b, bok := toFloat(t.Value)
	switch {
	case !has:
		return false
	case t.Op == Eq || t.Op == Ne: // numbers compare across int and float
		return (reflect.DeepEqual(v, t.Value) || aok && bok && a == b) == (t.Op == Eq)
	case !aok || !bok:
		return false
	case t.Op == Lt:
		return a < b
	case t.Op == Le:
		return a <= b
	case t.Op == Gt:
		return a > b
	}
	return t.Op == Ge && a >= b
}

func toFloat(v any) (float64, bool) {
	switch t := v.(type) {
	case int:
		return float64(t), true
	case int64:
		return float64(t), true
	case float64:
		return t, true
	}
	return 0, false
}

// Kind selects the property semantics.
type Kind string

const (
	// Never: the condition is a disallowed state; holding is a
	// violation. This is the paper's shipped k-v mechanism.
	Never Kind = "never"
	// Always: the negation of the condition is disallowed.
	Always Kind = "always"
	// LeadsTo: whenever Trigger holds, Response must hold within
	// Within (bounded response, the temporal-logic extension).
	LeadsTo Kind = "leads-to"
)

// Property is one declared scene property.
type Property struct {
	Name string
	Kind Kind
	// Cond is used by Never and Always.
	Cond Condition
	// Trigger/Response/Within are used by LeadsTo.
	Trigger  Condition
	Response Condition
	Within   time.Duration
}

// Validate checks structural sanity.
func (p *Property) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("property: name required")
	}
	switch p.Kind {
	case Never, Always:
		if len(p.Cond) == 0 {
			return fmt.Errorf("property %s: condition required", p.Name)
		}
	case LeadsTo:
		if len(p.Trigger) == 0 || len(p.Response) == 0 {
			return fmt.Errorf("property %s: trigger and response required", p.Name)
		}
		if p.Within <= 0 {
			return fmt.Errorf("property %s: positive Within required", p.Name)
		}
	default:
		return fmt.Errorf("property %s: unknown kind %q", p.Name, p.Kind)
	}
	return nil
}

// Violation is one reported property failure. At is on the trace
// timeline, like trace.Record.TS: the stamp of the record that entered
// a Never/Always bad state, or the deadline a leads-to response missed.
type Violation struct {
	Property string
	At       time.Duration
	Detail   string
}

// Checker runs a Monitor over a live trace log: one goroutine reads
// the log from its first record on, woken by each append, so its
// verdicts are CheckTrace's over the same records. Each open leads-to
// window arms a testbed-clock timer that wakes it to expire the window.
type Checker struct {
	log  *trace.Log
	clk  clock.Clock
	kick chan struct{} // wakes the goroutine: a deadline passed or a property was added

	mu         sync.Mutex
	props      []*Property
	violations []Violation
	started    bool
	stop, done chan struct{} // stop is nil while no goroutine runs

	mon  *Monitor     // owned by the running goroutine
	next atomic.Int64 // records consumed
}

// NewChecker builds a checker over a testbed's trace log, whose
// timestamps clk drives.
func NewChecker(log *trace.Log, clk clock.Clock) *Checker {
	c := &Checker{log: log, clk: clk, kick: make(chan struct{}, 1)}
	c.mon = newMonitor(nil, c.report, c.arm)
	return c
}

// Add registers a property, before or after Start.
func (c *Checker) Add(p *Property) error {
	if err := p.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, existing := range c.props {
		if existing.Name == p.Name {
			return fmt.Errorf("property %q already registered", p.Name)
		}
	}
	c.props = append(c.props, p)
	c.monitor()
	return nil
}

// Start arms the checker: it runs once it has a property.
func (c *Checker) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.started = true
	c.monitor()
}

// Stop ends the goroutine; open windows keep their timers. Idempotent.
func (c *Checker) Stop() {
	c.mu.Lock()
	c.started = false
	stop, done := c.stop, c.done
	c.stop = nil
	c.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// monitor starts the goroutine of a started checker with a property,
// or wakes it. Each pass reads the log's offset before it drains: a
// record appended later is stamped no earlier, so none can answer a
// window that Advance then expires. Called with c.mu held.
func (c *Checker) monitor() {
	if !c.started || len(c.props) == 0 {
		return
	} else if c.stop != nil {
		c.wake()
		return
	}
	stop, done := make(chan struct{}), make(chan struct{})
	c.stop, c.done = stop, done
	go func() {
		defer close(done)
		for {
			c.adopt()
			_, at := c.log.Tail()
			c.log.From(int(c.next.Load()), func(r *trace.Record) {
				c.mon.Feed(r)
				c.next.Store(int64(r.Seq))
			})
			c.mon.Advance(at)
			select {
			case <-stop:
				return
			case <-c.kick:
			case <-c.log.Wait(int(c.next.Load())):
			}
		}
	}()
}

// adopt brings new properties into the Monitor. A Monitor of their own
// first judges them on the records already consumed.
func (c *Checker) adopt() {
	c.mu.Lock()
	added := c.props[len(c.mon.watches):]
	c.mu.Unlock()
	if len(added) == 0 {
		return
	}
	late := newMonitor(added, c.report, c.arm)
	if n := c.next.Load(); n > 0 {
		c.log.From(0, func(r *trace.Record) {
			if int64(r.Seq) <= n {
				late.Feed(r)
			}
		})
	}
	c.mon.watches = append(c.mon.watches, late.watches...)
}

// arm starts a window's timer, due at the first clock reading past the
// deadline. An unpaced clock would fire it ahead of a response still
// being worked out in wall time: there the next record expires it.
func (c *Checker) arm(deadline time.Duration) clock.Timer {
	if s, ok := c.clk.(*clock.Scaled); ok && math.IsInf(s.Factor(), 1) {
		return nil
	}
	_, at := c.log.Tail()
	return c.clk.AfterFunc(deadline-at+time.Nanosecond, c.wake)
}

func (c *Checker) wake() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

func (c *Checker) report(v Violation) {
	c.mu.Lock()
	c.violations = append(c.violations, v)
	c.mu.Unlock()
	c.log.Violation("checker", v.Property, v.Detail)
}

// Count returns the number of reported violations.
func (c *Checker) Count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.violations)
}

// Violations returns a copy of all reported violations.
func (c *Checker) Violations() []Violation {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Violation, len(c.violations))
	copy(out, c.violations)
	return out
}

// PropertyList returns the registered properties themselves, enabling
// offline re-checking of the same properties against a trace.
func (c *Checker) PropertyList() []*Property {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Property(nil), c.props...)
}
