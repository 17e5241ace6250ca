package replay

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"repro/internal/broker"
	"repro/internal/chaos"
	"repro/internal/clock"
	"repro/internal/digi"
	"repro/internal/kube"
	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/vet"
)

// maxDeliveries bounds update propagation per run, so a non-convergent
// Sim handler fails the run instead of looping forever.
const maxDeliveries = 100000

// Result is the outcome of one deterministic run.
type Result struct {
	Scenario *Scenario
	// Records is the normalized canonical replay log (spans and
	// runtime gap markers dropped, sequence renumbered).
	Records []trace.Record
	// Digest is the chained SHA-256 over Records.
	Digest string
	// Report is the chaos run report (nil without a plan).
	Report *chaos.Report
	// Speed is the pacing factor the run executed at
	// (clock.SpeedMax = unpaced discrete-event firing).
	Speed float64
	// Wall is the wall-clock time the run took. Records and Digest
	// are independent of it — that is the speed-invariance contract.
	Wall time.Duration
}

// ExecOptions selects the execution mode of a run. The zero value is
// unpaced discrete-event execution (speed max), the mode Record has
// always used.
type ExecOptions struct {
	// Speed paces the run against the wall clock: 1 is real time,
	// 100 compresses 100s of scenario time into 1s of wall time, and
	// clock.SpeedMax (or 0) fires timers back-to-back. Pacing never
	// changes firing order or virtual timestamps, so the digest is
	// identical at every speed.
	Speed float64
}

// Engine executes a Scenario as a single-threaded discrete-event
// simulation over the real digi/broker/kube-placement/chaos stack.
// Each Engine runs once; its store, broker, and trace log are private
// to the run.
type Engine struct {
	registry *digi.Registry
	sc       *Scenario

	clk   *clock.Virtual
	pacer *clock.Scaled
	speed float64
	store *model.Store
	log   *trace.Log
	rt    *digi.Runtime
	brk   *broker.Broker

	// nodes + assigned mirror the scheduler's capacity view; placement
	// goes through kube.PickNode, the live cluster's policy.
	nodes    []*kube.Node
	assigned map[string]int

	digis map[string]*digiState
	order []string // creation order

	// queued collects updates committed outside stepper calls (device
	// fault injection) for propagation after the injecting step.
	queued []model.Update

	// failMu guards failure: fail is called from timer callbacks on
	// the driver goroutine and from Cancel on any goroutine.
	failMu  sync.Mutex
	failure error // sticky first engine error
}

// digiState is the engine's pod-liveness view of one digi.
type digiState struct {
	stepper *digi.Stepper
	node    string
	running bool
	epoch   int // bumped on every stop/restart; stale timers no-op
}

// NewEngineExec prepares a deterministic run in the given execution
// mode. The scenario is validated here. Every run — paced or not —
// drives the same clock.Scaled loop, so there is exactly one
// structural code path to keep digest-equivalent.
func NewEngineExec(registry *digi.Registry, sc *Scenario, opts ExecOptions) (*Engine, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	speed := opts.Speed
	if speed == 0 {
		speed = clock.SpeedMax
	}
	if math.IsNaN(speed) || speed < 0 {
		return nil, fmt.Errorf("replay: invalid speed %v", speed)
	}
	pacer := clock.NewScaled(speed, clock.System)
	e := &Engine{
		registry: registry,
		sc:       sc,
		clk:      pacer.Virtual,
		pacer:    pacer,
		speed:    speed,
		store:    model.NewStore(),
		assigned: map[string]int{},
		digis:    map[string]*digiState{},
	}
	e.log = trace.NewLogAt(e.clk.Now)
	// The broker shares the run's virtual clock, so fault-injected
	// delivery delays fire on virtual time instead of leaking wall
	//-clock goroutines into the deterministic run.
	e.brk = broker.NewBroker(&broker.Options{Clock: e.clk})
	e.rt = &digi.Runtime{
		Store:    e.store,
		Log:      e.log,
		Registry: registry,
		Broker:   e.brk,
	}
	nodes := sc.Nodes
	if len(nodes) == 0 {
		nodes = []Node{{Name: "laptop", Capacity: 4096, Zone: "local"}}
	}
	for _, n := range nodes {
		zone := n.Zone
		if zone == "" {
			zone = "local"
		}
		capacity := n.Capacity
		if capacity <= 0 {
			capacity = 4096
		}
		e.nodes = append(e.nodes, &kube.Node{
			Name:   n.Name,
			Labels: map[string]string{"zone": zone},
			Spec:   kube.NodeSpec{Capacity: capacity, Zone: zone},
			Status: kube.NodeStatus{Ready: true},
		})
	}
	return e, nil
}

// Run executes the scenario and returns the canonical result. The
// engine is single-use.
func (e *Engine) Run() (*Result, error) {
	wallStart := clock.System.Now()
	e.log.Mark(e.sc.Name, "run-start", map[string]any{
		"digis":       int64(len(e.sc.Digis)),
		"duration_ms": int64(e.sc.Duration / time.Millisecond),
	})

	// Deploy the scene table: every digi is created and placed first,
	// then the attachments are wired parent by parent (the vettest
	// Deploy order, so live and deterministic runs build the same way).
	for _, d := range e.sc.Digis {
		if err := e.createDigi(d); err != nil {
			return nil, err
		}
	}
	for _, d := range e.sc.Digis {
		for _, child := range d.Attach {
			if err := e.attach(child, d.Name); err != nil {
				return nil, err
			}
		}
	}

	// Scripted edits.
	for i := range e.sc.Script {
		ed := e.sc.Script[i]
		e.clk.ScheduleAt(ed.At, func() { e.applyEdit(ed) })
	}

	// Chaos plan: compile once (pure function of plan and seed), walk
	// the schedule on the virtual clock through the engine's injectors.
	var walker *chaos.Walker
	if e.sc.Chaos != nil {
		steps, err := chaos.Compile(e.sc.Chaos)
		if err != nil {
			return nil, err
		}
		ce := &chaos.Engine{
			Broker:  brokerInjector{e.brk},
			Cluster: clusterInjector{e},
			Devices: deviceInjector{e},
			Log:     e.log,
		}
		walker = ce.NewWalker(e.sc.Chaos)
		for i := range steps {
			st := steps[i]
			e.clk.ScheduleAt(st.At, func() {
				walker.Apply(st)
				e.propagate(nil)
			})
		}
	}

	// Drive the event loop to the end of the run window. At SpeedMax
	// the pacer fires timers back-to-back exactly like the old bare
	// Step loop; at finite speeds it inserts wall-clock waits between
	// the same steps.
	deadline := clock.Epoch.Add(e.sc.Duration)
	e.pacer.Run(deadline, func() bool { return e.err() == nil })
	if err := e.err(); err != nil {
		return nil, err
	}
	e.log.Mark(e.sc.Name, "run-end", map[string]any{"records": int64(e.log.Len())})

	recs := trace.Normalize(e.log.Records())
	digest, err := trace.Digest(recs)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Scenario: e.sc,
		Records:  recs,
		Digest:   digest,
		Speed:    e.speed,
		Wall:     clock.System.Now().Sub(wallStart),
	}
	if walker != nil {
		res.Report = walker.Report()
	}
	return res, nil
}

// Speed returns the configured pacing factor.
func (e *Engine) Speed() float64 { return e.speed }

// Elapsed returns the scenario time the run has covered so far; safe
// to call from other goroutines while Run is in flight.
func (e *Engine) Elapsed() time.Duration { return e.clk.Elapsed() }

// Cancel aborts an in-flight Run with err (e.g. context cancellation
// from a ctl handler). Safe from any goroutine; idempotent.
func (e *Engine) Cancel(err error) {
	if err == nil {
		err = fmt.Errorf("replay: %s: run cancelled", e.sc.Name)
	}
	e.fail(err)
	e.pacer.Stop()
}

// fail records the first engine error and stops the run.
func (e *Engine) fail(err error) {
	e.failMu.Lock()
	defer e.failMu.Unlock()
	if e.failure == nil && err != nil {
		e.failure = err
	}
}

// err returns the sticky first engine error.
func (e *Engine) err() error {
	e.failMu.Lock()
	defer e.failMu.Unlock()
	return e.failure
}

// createDigi mirrors core.Run: instantiate the model (schema defaults
// plus meta config overrides), gate on vet, create it in the store,
// place its pod, and start its stepper.
func (e *Engine) createDigi(d Digi) error {
	kind, ok := e.registry.Get(d.Type)
	if !ok {
		return fmt.Errorf("replay: type %q not registered", d.Type)
	}
	doc := kind.Schema.New(d.Name)
	for k, v := range d.Config {
		doc.Set("meta."+k, v)
	}
	if err := kind.Schema.Validate(doc); err != nil {
		return err
	}
	if diags := vet.Errors(vet.CheckDoc(doc)); len(diags) > 0 {
		return fmt.Errorf("replay: %s fails vet: %s", d.Name, vet.Summary(diags))
	}
	if err := e.store.Create(doc); err != nil {
		return err
	}
	st := &digiState{}
	e.digis[d.Name] = st
	e.order = append(e.order, d.Name)
	node, ok := kube.PickNode(e.nodes, nil, e.assigned)
	if !ok {
		return fmt.Errorf("replay: no node with free capacity for %s", d.Name)
	}
	return e.startDigi(d.Name, node)
}

// startDigi places the digi's pod on node and (re)starts its stepper:
// a fresh seeded Ctx, the self-contained model snapshot, and an
// initial simulation pass — exactly what the live reconciler does when
// its pod starts.
func (e *Engine) startDigi(name, node string) error {
	st := e.digis[name]
	stepper, err := e.rt.NewStepper(context.Background(), name)
	if err != nil {
		return err
	}
	e.assigned[node]++
	st.stepper = stepper
	st.node = node
	st.running = true
	st.epoch++
	e.log.Mark(name, "pod-scheduled", map[string]any{"node": node, "pod": podName(name)})
	stepper.LogSnapshot()
	e.propagate(stepper.Simulate())
	e.scheduleTick(name, st.epoch)
	return nil
}

// stopDigi evicts the digi's pod (node failure, crash); its stepper
// stops ticking and observing updates until restarted.
func (e *Engine) stopDigi(name, detail string) {
	st := e.digis[name]
	if st == nil || !st.running {
		return
	}
	if e.assigned[st.node] > 0 {
		e.assigned[st.node]--
	}
	e.log.Mark(name, detail, map[string]any{"node": st.node, "pod": podName(name)})
	st.running = false
	st.node = ""
	st.epoch++
}

// scheduleTick arms the digi's next Loop firing. The epoch guard makes
// timers of an evicted or restarted digi no-ops.
func (e *Engine) scheduleTick(name string, epoch int) {
	st := e.digis[name]
	interval := st.stepper.Interval()
	e.clk.Schedule(interval, func() {
		cur := e.digis[name]
		if cur == nil || !cur.running || cur.epoch != epoch {
			return
		}
		e.propagate(cur.stepper.Tick())
		e.scheduleTick(name, epoch)
	})
}

// attach mirrors core.Attach: add the child to the parent scene's
// attach list and pause the child's own event generation.
func (e *Engine) attach(child, parent string) error {
	parentDoc, _, ok := e.store.View(parent)
	if !ok {
		return fmt.Errorf("replay: %q not found", parent)
	}
	parentKind, ok := e.registry.Get(parentDoc.Type())
	if !ok || !parentKind.Scene() {
		return fmt.Errorf("replay: %q is not a scene", parent)
	}
	u, err := e.store.Apply(parent, func(d *model.Draft) error {
		att := d.Attach()
		for _, c := range att {
			if c == child {
				return nil
			}
		}
		vals := make([]any, 0, len(att)+1)
		for _, c := range att {
			vals = append(vals, c)
		}
		vals = append(vals, child)
		d.Set("meta.attach", vals)
		return nil
	})
	if err != nil {
		return err
	}
	var updates []model.Update
	if len(u.Changes) > 0 {
		updates = append(updates, u)
	}
	cu, err := e.store.Apply(child, func(d *model.Draft) error {
		d.Set("meta.managed", false)
		return nil
	})
	if err != nil {
		return err
	}
	if len(cu.Changes) > 0 {
		updates = append(updates, cu)
	}
	e.propagate(updates)
	return e.err()
}

// applyEdit fires one scripted edit: a mark record, then the merge
// patch (schema-validated, like core.Edit), then propagation.
func (e *Engine) applyEdit(ed Edit) {
	e.log.Mark(ed.Name, "script-edit", ed.Patch)
	doc, _, ok := e.store.View(ed.Name)
	if !ok {
		e.fail(fmt.Errorf("replay: edit target %q not found", ed.Name))
		return
	}
	kind, _ := e.registry.Get(doc.Type())
	u, err := e.store.Apply(ed.Name, func(d *model.Draft) error {
		d.Merge(ed.Patch)
		if kind != nil {
			return kind.Schema.Validate(d)
		}
		return nil
	})
	if err != nil {
		e.fail(fmt.Errorf("replay: edit %s: %w", ed.Name, err))
		return
	}
	if len(u.Changes) > 0 {
		e.propagate([]model.Update{u})
	}
}

// propagate serializes watcher delivery: every committed update is
// handed to each running stepper that would observe it (itself, or a
// scene whose attach list names the target), in creation order. New
// commits join the queue until the ensemble reaches its fixpoint.
func (e *Engine) propagate(updates []model.Update) {
	if e.err() != nil {
		return
	}
	pending := append(updates, e.queued...)
	e.queued = nil
	delivered := 0
	for len(pending) > 0 {
		u := pending[0]
		pending = pending[1:]
		for _, name := range e.order {
			st := e.digis[name]
			if st == nil || !st.running {
				continue
			}
			if !e.watches(name, u.Name) {
				continue
			}
			delivered++
			if delivered > maxDeliveries {
				e.fail(fmt.Errorf("replay: %s: update propagation did not converge after %d deliveries (non-idempotent Sim handler?)", e.sc.Name, maxDeliveries))
				return
			}
			pending = append(pending, st.stepper.HandleUpdate(u)...)
			pending = append(pending, e.queued...)
			e.queued = nil
		}
	}
}

// watches reports whether the named digi's live watcher would observe
// an update to target: its own model, or a child its attach list
// names.
func (e *Engine) watches(name, target string) bool {
	if name == target {
		return true
	}
	doc, _, ok := e.store.View(name)
	if !ok {
		return false
	}
	for _, c := range doc.Attach() {
		if c == target {
			return true
		}
	}
	return false
}

func podName(digiName string) string {
	return "digi-" + strings.ToLower(digiName)
}

// Record is the one-call surface: run the scenario deterministically
// against the registered kinds and return the canonical result.
func Record(registry *digi.Registry, sc *Scenario) (*Result, error) {
	return RecordExec(registry, sc, ExecOptions{})
}

// RecordExec runs the scenario in the given execution mode. The
// result's Records and Digest are identical at every speed.
func RecordExec(registry *digi.Registry, sc *Scenario, opts ExecOptions) (*Result, error) {
	e, err := NewEngineExec(registry, sc, opts)
	if err != nil {
		return nil, err
	}
	return e.Run()
}

// Verify re-executes the scenario and checks the produced digest
// against want (a prior run's digest), returning the fresh result.
func Verify(registry *digi.Registry, sc *Scenario, want string) (*Result, error) {
	res, err := Record(registry, sc)
	if err != nil {
		return nil, err
	}
	if want != "" && res.Digest != want {
		return res, fmt.Errorf("replay: digest mismatch for %s:\n  recorded %s\n  replayed %s", sc.Name, want, res.Digest)
	}
	return res, nil
}
