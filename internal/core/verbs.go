package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/kube"
	"repro/internal/model"
	"repro/internal/property"
	"repro/internal/trace"
	"repro/internal/vet"
)

// Run implements "dbox run TYPE NAME": instantiate a model of the
// registered kind (with optional meta config overrides) and deploy its
// digi as a pod. It blocks until the digi's reconciler is live.
func (tb *Testbed) Run(typ, name string, config map[string]any) error {
	kind, ok := tb.Registry.Get(typ)
	if !ok {
		return fmt.Errorf("core: type %q not registered (dbox commit it first)", typ)
	}
	doc := kind.Schema.New(name)
	for k, v := range config {
		doc.Set("meta."+k, v)
	}
	if err := kind.Schema.Validate(doc); err != nil {
		return err
	}
	if diags := vet.Errors(vet.CheckDoc(doc)); len(diags) > 0 {
		return fmt.Errorf("core: %s fails vet: %s", name, vet.Summary(diags))
	}
	return tb.deploy(typ, name, doc)
}

// RunDoc deploys a digi from a complete model document (used by
// Recreate and by tests that need non-default initial state).
func (tb *Testbed) RunDoc(doc model.Doc) error {
	meta, err := doc.Meta()
	if err != nil {
		return err
	}
	kind, ok := tb.Registry.Get(meta.Type)
	if !ok {
		return fmt.Errorf("core: type %q not registered", meta.Type)
	}
	if err := kind.Schema.Validate(doc); err != nil {
		return err
	}
	return tb.deploy(meta.Type, meta.Name, doc)
}

// deploy stores a validated model and runs its digi as a pod, blocking
// until the reconciler is live.
func (tb *Testbed) deploy(typ, name string, doc model.Doc) error {
	if err := tb.Store.Create(doc); err != nil {
		return err
	}
	// The incarnation keeps a reconciler left over from an earlier digi
	// of the same name from passing the WaitReady below.
	env := map[string]any{"name": name, "incarnation": tb.Runtime.Expect(name)}
	if err := tb.Cluster.CreatePod(&kube.Pod{
		Name:   podName(name),
		Spec:   kube.PodSpec{Image: "digi", Env: env, RestartPolicy: kube.RestartAlways},
		Labels: map[string]string{"digi": name, "type": typ},
	}); err != nil {
		tb.Runtime.Forget(name)
		tb.Store.Delete(name)
		return err
	}
	// The reconciler marks itself ready from inside the running pod:
	// one wait covers scheduling, start and watch.
	return tb.Runtime.WaitReady(name, tb.opts.ReadyTimeout)
}

// StopDigi implements "dbox stop NAME": delete the pod and the model,
// and detach the digi from any scene referencing it.
func (tb *Testbed) StopDigi(name string) error {
	if !tb.Store.Has(name) {
		return fmt.Errorf("core: %q not found", name)
	}
	tb.Cluster.DeletePod(podName(name))
	tb.podNode.Delete(name)
	tb.Runtime.Forget(name)
	// Remove dangling attach references.
	for _, parent := range tb.Store.List() {
		if parent == name {
			continue
		}
		doc, _, ok := tb.Store.View(parent)
		if !ok {
			continue
		}
		if containsString(doc.Attach(), name) {
			tb.Store.Apply(parent, func(d *model.Draft) error {
				removeAttach(d, name)
				return nil
			})
		}
	}
	tb.Store.Delete(name)
	return nil
}

// Check implements "dbox check NAME": a snapshot of the model.
func (tb *Testbed) Check(name string) (model.Doc, error) {
	doc, _, ok := tb.Store.Get(name)
	if !ok {
		return nil, fmt.Errorf("core: %q not found", name)
	}
	return doc, nil
}

// Watch implements "dbox watch NAME": a stream of model updates.
// Close the returned watcher when done.
func (tb *Testbed) Watch(name string) *model.Watcher {
	return tb.Store.WatchName(name)
}

// Attach implements "dbox attach CHILD PARENT": add the child to the
// parent scene's attach list. The child's event generator is paused
// (managed=false) because the scene now drives its state; Detach
// restores it.
func (tb *Testbed) Attach(child, parent string) error {
	if !tb.Store.Has(child) {
		return fmt.Errorf("core: %q not found", child)
	}
	parentDoc, _, ok := tb.Store.View(parent)
	if !ok {
		return fmt.Errorf("core: %q not found", parent)
	}
	parentKind, ok := tb.Registry.Get(parentDoc.Type())
	if !ok || !parentKind.Scene() {
		return fmt.Errorf("core: %q is not a scene", parent)
	}
	if child == parent {
		return fmt.Errorf("core: cannot attach %q to itself", child)
	}
	if tb.wouldCycle(child, parent) {
		return fmt.Errorf("core: attaching %q to %q would create a cycle", child, parent)
	}
	if _, err := tb.Store.Apply(parent, func(d *model.Draft) error {
		addAttach(d, child)
		return nil
	}); err != nil {
		return err
	}
	_, err := tb.Store.Apply(child, func(d *model.Draft) error {
		d.Set("meta.managed", false)
		return nil
	})
	return err
}

// Detach implements "dbox attach -d CHILD PARENT": remove the child
// from the parent and resume its own event generation.
func (tb *Testbed) Detach(child, parent string) error {
	doc, _, ok := tb.Store.View(parent)
	if !ok {
		return fmt.Errorf("core: %q not found", parent)
	}
	if !containsString(doc.Attach(), child) {
		return fmt.Errorf("core: %q is not attached to %q", child, parent)
	}
	if _, err := tb.Store.Apply(parent, func(d *model.Draft) error {
		removeAttach(d, child)
		return nil
	}); err != nil {
		return err
	}
	if tb.Store.Has(child) {
		_, err := tb.Store.Apply(child, func(d *model.Draft) error {
			d.Set("meta.managed", true)
			return nil
		})
		return err
	}
	return nil
}

// Reattach moves a child between scenes atomically enough for mobility
// emulation (§5 urban sensing): detach from old, attach to new.
func (tb *Testbed) Reattach(child, fromParent, toParent string) error {
	if err := tb.Detach(child, fromParent); err != nil {
		return err
	}
	return tb.Attach(child, toParent)
}

// wouldCycle reports whether parent is reachable from child via attach
// edges (so attaching child under parent would close a loop).
func (tb *Testbed) wouldCycle(child, parent string) bool {
	seen := map[string]bool{}
	var walk func(string) bool
	walk = func(n string) bool {
		if n == parent {
			return true
		}
		if seen[n] {
			return false
		}
		seen[n] = true
		doc, _, ok := tb.Store.View(n)
		if !ok {
			return false
		}
		for _, c := range doc.Attach() {
			if walk(c) {
				return true
			}
		}
		return false
	}
	return walk(child)
}

// Edit implements "dbox edit NAME": apply a merge patch to the model,
// emulating user interaction with a mock (e.g. setting a lamp's power
// intent, §3.3).
func (tb *Testbed) Edit(name string, patch map[string]any) error {
	doc, _, ok := tb.Store.View(name)
	if !ok {
		return fmt.Errorf("core: %q not found", name)
	}
	kind, _ := tb.Registry.Get(doc.Type())
	_, err := tb.Store.Apply(name, func(d *model.Draft) error {
		d.Merge(patch)
		if kind != nil {
			return kind.Schema.Validate(d)
		}
		return nil
	})
	return err
}

// AddProperty registers a scene property with the runtime checker.
func (tb *Testbed) AddProperty(p *property.Property) error {
	return tb.Checker.Add(p)
}

// CheckTraceRecords evaluates the testbed's registered scene
// properties offline against a recorded trace — validating a shared
// experiment (§3.5) without re-running it.
func (tb *Testbed) CheckTraceRecords(recs []trace.Record) ([]property.Violation, error) {
	return property.CheckTrace(recs, tb.Checker.PropertyList())
}

// Violations returns the property violations observed so far.
func (tb *Testbed) Violations() []property.Violation {
	return tb.Checker.Violations()
}

// Subtree returns the names of a scene's attach-closure including the
// root itself, in children-first order.
func (tb *Testbed) Subtree(root string) ([]string, error) {
	if !tb.Store.Has(root) {
		return nil, fmt.Errorf("core: %q not found", root)
	}
	var out []string
	seen := map[string]bool{}
	var visit func(string)
	visit = func(n string) {
		if seen[n] {
			return
		}
		seen[n] = true
		doc, _, ok := tb.Store.View(n)
		if ok {
			for _, c := range doc.Attach() {
				visit(c)
			}
		}
		out = append(out, n)
	}
	visit(root)
	return out, nil
}

// Replay implements "dbox replay": pause event generation for every
// digi named in the trace, then re-apply the recorded action records
// in order. Event and action records keep the recorded timing: at
// speed > 0 each is due at origin + (TS−TS₀)/speed on the testbed's
// clock, where origin is when the first of them is reached, so replay
// keeps pace with a -speed testbed and a slow apply does not push the
// rest back. speed <= 0 applies as fast as possible. Running scene
// simulators react to the replayed states exactly as they did during
// recording. ctx ends the replay early.
func (tb *Testbed) Replay(ctx context.Context, recs []trace.Record, speed float64) error {
	paused := map[string]bool{}
	for _, name := range trace.Names(recs) {
		if tb.Store.Has(name) && !paused[name] {
			paused[name] = true
			tb.Store.Apply(name, func(d *model.Draft) error {
				d.Set("meta.managed", false)
				return nil
			})
		}
	}
	var origin time.Time
	var ts0 time.Duration
	for _, r := range recs {
		if r.Kind != trace.KindAction && r.Kind != trace.KindEvent {
			continue
		}
		if origin.IsZero() {
			origin, ts0 = tb.clk.Now(), r.TS
		} else if speed > 0 {
			if err := clock.SleepUntil(ctx, tb.clk, origin.Add(time.Duration(float64(r.TS-ts0)/speed))); err != nil {
				return err
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if r.Kind != trace.KindAction || !tb.Store.Has(r.Name) {
			continue // trace may reference digis not deployed here
		}
		_, err := tb.Store.Apply(r.Name, func(d *model.Draft) error {
			for path, v := range r.Sets {
				d.Set(path, v)
			}
			for _, path := range r.Deletes {
				d.Delete(path)
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("core: replay record %d: %w", r.Seq, err)
		}
	}
	return nil
}

// SaveTrace writes the testbed's trace archive to path ("sharing any
// experiment results", §3.5).
func (tb *Testbed) SaveTrace(path string) error {
	return tb.Log.SaveArchive(path)
}

func containsString(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

func addAttach(d *model.Draft, child string) {
	att := d.Attach()
	if containsString(att, child) {
		return
	}
	att = append(att, child)
	setAttach(d, att)
}

func removeAttach(d *model.Draft, child string) {
	att := d.Attach()
	out := att[:0]
	for _, v := range att {
		if v != child {
			out = append(out, v)
		}
	}
	setAttach(d, out)
}

func setAttach(d *model.Draft, att []string) {
	vals := make([]any, len(att))
	for i, v := range att {
		vals[i] = v
	}
	d.Set("meta.attach", vals)
}

// WaitConverged polls until cond holds or the timeout elapses — a
// helper for tests and examples synchronising on ensemble effects.
// Convergence often rides wall-domain work (a client redialling a real
// TCP broker, goroutine handoffs), so past the scenario timeout the
// condition gets ReadyTimeout of wall time.
func (tb *Testbed) WaitConverged(timeout time.Duration, cond func() bool) error {
	d := clock.NewDeadline(tb.clk, timeout, tb.opts.ReadyTimeout)
	for !cond() {
		if !d.Poll() {
			return fmt.Errorf("core: condition not reached within %v", timeout)
		}
	}
	return nil
}

// FormatDoc renders a model for console display (dbox check output).
func FormatDoc(d model.Doc) string {
	data, err := d.Encode()
	if err != nil {
		return fmt.Sprintf("<encode error: %v>", err)
	}
	return strings.TrimRight(string(data), "\n")
}
