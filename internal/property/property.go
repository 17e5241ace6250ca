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
package property

import (
	"fmt"
	"strings"
	"sync"
	"time"

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
	doc, ok := s.GetModel(t.Model)
	if !ok {
		return t.Op == Absent
	}
	v, has := doc.Get(t.Path)
	switch t.Op {
	case Exists:
		return has
	case Absent:
		return !has
	}
	if !has {
		return false
	}
	switch t.Op {
	case Eq:
		return looseEqual(v, t.Value)
	case Ne:
		return !looseEqual(v, t.Value)
	case Lt, Le, Gt, Ge:
		a, aok := toFloat(v)
		b, bok := toFloat(t.Value)
		if !aok || !bok {
			return false
		}
		switch t.Op {
		case Lt:
			return a < b
		case Le:
			return a <= b
		case Gt:
			return a > b
		default:
			return a >= b
		}
	}
	return false
}

func looseEqual(a, b any) bool {
	if a == b {
		return true
	}
	af, aok := toFloat(a)
	bf, bok := toFloat(b)
	return aok && bok && af == bf
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

// Violation is one reported property failure.
type Violation struct {
	Property string
	At       time.Time
	Detail   string
}

// Checker evaluates properties against a live model store, reporting
// violations to the trace log and keeping its own list. Create with
// NewChecker, then Start/Stop. A started checker watches the store
// only from its first property on: with none it costs nothing.
type Checker struct {
	store *model.Store
	log   *trace.Log

	mu         sync.Mutex
	props      []*Property
	pending    map[string]time.Time // armed leads-to deadlines by property name
	violations []Violation
	// edge state for Never/Always so a persistent bad state is
	// reported once per entry, not once per model commit.
	active map[string]bool

	started bool
	watcher *model.Watcher // nil while not watching
	wg      sync.WaitGroup
	now     func() time.Time
}

// NewChecker builds a checker over a store; log may be nil.
func NewChecker(store *model.Store, log *trace.Log) *Checker {
	return &Checker{
		store:   store,
		log:     log,
		pending: map[string]time.Time{},
		active:  map[string]bool{},
		now:     time.Now,
	}
}

// Add registers a property (before or after Start).
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
	if c.started && c.watcher == nil {
		c.watch()
	}
	return nil
}

// storeState adapts the model store to State.
type storeState struct{ s *model.Store }

func (ss storeState) GetModel(name string) (model.Doc, bool) {
	d, _, ok := ss.s.Get(name)
	return d, ok
}

// StoreState adapts a live model store to the State interface so
// callers outside this package (e.g. testbed test cases) can evaluate
// conditions against current models.
func StoreState(s *model.Store) State { return storeState{s} }

// Start arms the checker: it watches the store once it has a property.
func (c *Checker) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.started = true
	if len(c.props) > 0 && c.watcher == nil {
		c.watch()
	}
}

// watch begins the watch loop, which ends when the watcher is closed.
// Called with c.mu held.
func (c *Checker) watch() {
	w := c.store.Watch(nil)
	c.watcher = w
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		ticker := time.NewTicker(10 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case _, ok := <-w.C:
				if !ok {
					return
				}
				c.evaluate()
			case <-ticker.C:
				// Deadline expiry for leads-to must fire even when the
				// store goes quiet.
				c.checkDeadlines()
			}
		}
	}()
}

// Stop terminates the watch loop. Safe to call more than once.
func (c *Checker) Stop() {
	c.mu.Lock()
	c.started = false
	w := c.watcher
	c.watcher = nil
	c.mu.Unlock()
	if w != nil {
		w.Close()
		c.wg.Wait()
	}
}

// evaluate runs all properties against the current store state.
func (c *Checker) evaluate() {
	st := storeState{c.store}
	now := c.now()
	c.mu.Lock()
	props := append([]*Property(nil), c.props...)
	c.mu.Unlock()
	for _, p := range props {
		switch p.Kind {
		case Never:
			c.edgeReport(p, p.Cond.Eval(st), now, "disallowed state reached: "+p.Cond.String())
		case Always:
			c.edgeReport(p, !p.Cond.Eval(st), now, "required state violated: "+p.Cond.String())
		case LeadsTo:
			c.evalLeadsTo(p, st, now)
		}
	}
	c.checkDeadlines()
}

// edgeReport reports a state property on its rising edge only.
func (c *Checker) edgeReport(p *Property, bad bool, now time.Time, detail string) {
	c.mu.Lock()
	wasBad := c.active[p.Name]
	c.active[p.Name] = bad
	c.mu.Unlock()
	if bad && !wasBad {
		c.report(p.Name, now, detail)
	}
}

func (c *Checker) evalLeadsTo(p *Property, st State, now time.Time) {
	triggered := p.Trigger.Eval(st)
	responded := p.Response.Eval(st)
	c.mu.Lock()
	deadline, armed := c.pending[p.Name]
	switch {
	case armed && responded && !now.After(deadline):
		delete(c.pending, p.Name)
	case armed && now.After(deadline):
		delete(c.pending, p.Name)
		c.mu.Unlock()
		c.report(p.Name, now, fmt.Sprintf("response %q not reached within %v of trigger %q",
			p.Response.String(), p.Within, p.Trigger.String()))
		return
	case !armed && triggered && !responded:
		c.pending[p.Name] = now.Add(p.Within)
	}
	c.mu.Unlock()
}

// checkDeadlines expires armed leads-to windows.
func (c *Checker) checkDeadlines() {
	st := storeState{c.store}
	now := c.now()
	c.mu.Lock()
	props := append([]*Property(nil), c.props...)
	c.mu.Unlock()
	for _, p := range props {
		if p.Kind == LeadsTo {
			c.evalLeadsTo(p, st, now)
		}
	}
}

func (c *Checker) report(name string, at time.Time, detail string) {
	c.mu.Lock()
	c.violations = append(c.violations, Violation{Property: name, At: at, Detail: detail})
	c.mu.Unlock()
	if c.log != nil {
		c.log.Violation("checker", name, detail)
	}
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
