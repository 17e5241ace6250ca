package digi

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/trace"
)

// hub is a counting scene kind: its Sim copies level into its own
// applied field and into every attached Leaf's value, counts its runs,
// and records the level each run saw. When hold is non-nil the first
// run announces itself on entered (buffered, one slot) and every run
// waits for close(hold), so a test can queue updates behind the boot
// run while it is in progress.
type hub struct {
	runs    atomic.Int64
	hold    chan struct{}
	entered chan struct{}

	mu   sync.Mutex
	seen []int64
}

func (h *hub) kind() *Kind {
	return &Kind{
		Schema: &model.Schema{
			Type: "Hub", Version: "v1", Scene: true,
			Fields: map[string]model.FieldSpec{
				"level":   {Kind: model.KindInt, Default: int64(0)},
				"applied": {Kind: model.KindInt, Default: int64(0)},
			},
		},
		Sim: func(c *Ctx, work *model.Draft, atts Atts) error {
			h.runs.Add(1)
			if h.hold != nil {
				select {
				case h.entered <- struct{}{}:
				default:
				}
				select {
				case <-h.hold:
				case <-c.Context().Done():
					return nil
				}
			}
			level, _ := work.GetInt("level")
			h.mu.Lock()
			h.seen = append(h.seen, level)
			h.mu.Unlock()
			work.Set("applied", level)
			for _, leaf := range atts.Get("Leaf") {
				leaf.Set("value", level)
			}
			return nil
		},
	}
}

func (h *hub) levels() []int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]int64(nil), h.seen...)
}

// leafKind has no handlers: a Leaf only holds the value its Hub writes.
func leafKind() *Kind {
	return &Kind{Schema: &model.Schema{
		Type: "Leaf", Version: "v1",
		Fields: map[string]model.FieldSpec{"value": {Kind: model.KindInt, Default: int64(0)}},
	}}
}

// hubHarness creates n Leaf models (no reconcilers: they commit
// nothing themselves) and a Hub attached to all of them, and binds a
// metrics registry so the test can read the coalesced counter.
func hubHarness(t *testing.T, hb *hub, n int) (*harness, *obs.Registry, []string) {
	t.Helper()
	h := newHarness(t, hb.kind(), leafKind())
	reg := obs.NewRegistry()
	h.rt.BindObs(reg)
	leaves := make([]string, n)
	for i := range leaves {
		leaves[i] = fmt.Sprintf("L%02d", i)
		if err := h.rt.Store.Create(leafKind().Schema.New(leaves[i])); err != nil {
			t.Fatal(err)
		}
	}
	doc := hb.kind().Schema.New("H")
	doc.SetMeta(model.Meta{Type: "Hub", Version: "v1", Name: "H", Attach: leaves})
	if err := h.rt.Store.Create(doc); err != nil {
		t.Fatal(err)
	}
	return h, reg, leaves
}

const coalescedMetric = "digibox_digi_updates_coalesced_total"

// drained waits until the Hub's reconciler has taken `updates` watch
// updates off its queue: each one either ran Sim (after the one boot
// run) or was coalesced.
func drained(t *testing.T, hb *hub, reg *obs.Registry, updates int64) {
	t.Helper()
	waitFor(t, func() bool {
		return hb.runs.Load()-1+int64(reg.Value(coalescedMetric)) == updates
	}, fmt.Sprintf("the reconciler to drain %d updates", updates))
}

func actionRecords(l *trace.Log, name string) []trace.Record {
	var out []trace.Record
	for _, r := range l.RecordsFor(name) {
		if r.Kind == trace.KindAction {
			out = append(out, r)
		}
	}
	return out
}

// Context returns the digi's lifecycle context (cancelled on stop).
func (c *Ctx) Context() context.Context { return c.ctx }

// One edit of a 50-child scene: 50 child commits, and the parent's
// Sim runs for the edit and once more for its own applied=7, an
// own-model commit; its 50 child commits are never delivered to it.
func TestFanoutSimulatesOncePerBurstNotPerChild(t *testing.T) {
	const children = 50
	hb := &hub{}
	h, reg, leaves := hubHarness(t, hb, children)
	h.start(t, "H")
	waitFor(t, func() bool { return hb.runs.Load() == 1 }, "the boot simulate")
	gen0 := h.rt.Store.Gen()
	actions0 := len(actionRecords(h.rt.Log, "H"))

	if _, err := h.rt.Store.Patch("H", map[string]any{"level": int64(7)}); err != nil {
		t.Fatal(err)
	}
	// The Hub is delivered the edit and its own applied=7; the store
	// commits one more per child.
	const updates, commits = 2, 2 + children
	drained(t, hb, reg, updates)

	if got := h.rt.Store.Gen() - gen0; got != commits {
		t.Errorf("%d commits followed the edit, want %d (edit + applied + %d children)", got, commits, children)
	}
	if runs := hb.runs.Load() - 1; runs != 2 {
		t.Errorf("the edit cost %d Sim runs, want 2 (edit + applied) for %d children", runs, children)
	}
	if got := int64(reg.Value(coalescedMetric)); got != 0 {
		t.Errorf("%s = %d, want 0 (no child commit is delivered)", coalescedMetric, got)
	}
	// The fixpoint: every model agrees and one more run changes nothing.
	hubDoc, _, _ := h.rt.Store.Get("H")
	if v, _ := hubDoc.GetInt("applied"); v != 7 {
		t.Errorf("H.applied = %d, want 7", v)
	}
	for _, name := range leaves {
		leaf, _, _ := h.rt.Store.Get(name)
		if v, _ := leaf.GetInt("value"); v != 7 {
			t.Errorf("%s.value = %d, want 7", name, v)
		}
	}
	if lv := hb.levels(); lv[len(lv)-1] != 7 {
		t.Errorf("the last Sim run saw level %d, want 7", lv[len(lv)-1])
	}
	// Both own-model updates are logged, simulated or not.
	acts := actionRecords(h.rt.Log, "H")[actions0:]
	if len(acts) != 2 || acts[0].Sets["level"] != int64(7) || acts[1].Sets["applied"] != int64(7) {
		t.Errorf("own-model action records after the edit = %+v, want level=7 then applied=7", acts)
	}
}

// A scene is never sent its own child writes. After one edit of a
// 50-child Hub its watcher delivers exactly the two own-model updates
// (the edit and applied=7: one action record each, and LogUpdate logs
// only own-model updates), while an independent watcher on the leaves
// sees all 50 child commits.
func TestSceneReceivesNoEchoOfItsChildWrites(t *testing.T) {
	const children = 50
	hb := &hub{}
	h, reg, leaves := hubHarness(t, hb, children)
	h.start(t, "H")
	waitFor(t, func() bool { return hb.runs.Load() == 1 }, "the boot simulate")
	others := h.rt.Store.WatchNames(leaves...)
	defer others.Close()
	actions0 := len(actionRecords(h.rt.Log, "H"))

	if _, err := h.rt.Store.Patch("H", map[string]any{"level": int64(7)}); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for len(seen) < children {
		var u model.Update
		select {
		case u = <-others.C:
		case <-time.After(5 * time.Second):
			t.Fatalf("the leaf watcher saw %d of %d child commits", len(seen), children)
		}
		if v, _ := u.Doc.GetInt("value"); v != 7 || seen[u.Name] {
			t.Fatalf("leaf watcher got %s value=%d (seen before: %v), want each leaf once with 7", u.Name, v, seen[u.Name])
		}
		seen[u.Name] = true
	}
	drained(t, hb, reg, 2)
	delivered := func() int64 { return hb.runs.Load() - 1 + int64(reg.Value(coalescedMetric)) }
	holds(t, 100*time.Millisecond, func() bool { return delivered() == 2 }, "the Hub to be delivered nothing more")
	if acts := actionRecords(h.rt.Log, "H")[actions0:]; len(acts) != 2 {
		t.Errorf("the Hub logged %d own-model updates, want 2 (every delivered update is its own)", len(acts))
	}
	select {
	case u := <-others.C:
		t.Errorf("leaf watcher got an update beyond the 50 child commits: %s gen %d", u.Name, u.Gen)
	default:
	}
}

// Two updates queued behind a run in progress: the next run reads the
// store, so it sees (and a mock would publish) the latest state, and
// the second update is logged but not simulated again.
func TestQueuedUpdatesSimulateTheLatestState(t *testing.T) {
	hb := &hub{hold: make(chan struct{}), entered: make(chan struct{}, 1)}
	h, reg, _ := hubHarness(t, hb, 0)
	h.start(t, "H")
	<-hb.entered // the boot run has read level=0 and is parked
	for _, level := range []int64{1, 2} {
		if _, err := h.rt.Store.Patch("H", map[string]any{"level": level}); err != nil {
			t.Fatal(err)
		}
	}
	close(hb.hold)
	// level=1, level=2, and the Hub's own applied=2.
	drained(t, hb, reg, 3)

	lv := hb.levels()
	if lv[0] != 0 || lv[len(lv)-1] != 2 {
		t.Errorf("Sim saw levels %v, want 0 at boot and 2 last", lv)
	}
	for _, l := range lv[1:] {
		if l != 2 {
			t.Errorf("Sim saw levels %v: a run after the boot one read a stale level", lv)
		}
	}
	if got := reg.Value(coalescedMetric); got != 1 {
		t.Errorf("%s = %v, want 1 (the level=2 update)", coalescedMetric, got)
	}
	acts := actionRecords(h.rt.Log, "H")
	if len(acts) != 4 { // boot snapshot, level=1, level=2, applied=2
		t.Fatalf("H has %d action records, want 4: %+v", len(acts), acts)
	}
	if acts[1].Sets["level"] != int64(1) || acts[2].Sets["level"] != int64(2) {
		t.Errorf("coalesced update lost its action record: %+v", acts[1:3])
	}
}

// A child delete re-simulates even though a run that started after it
// was committed has already happened (deletes stay edge-triggered).
func TestChildDeleteAlwaysSimulates(t *testing.T) {
	hb := &hub{hold: make(chan struct{}), entered: make(chan struct{}, 1)}
	h, reg, leaves := hubHarness(t, hb, 2)
	h.start(t, "H")
	<-hb.entered
	// Queued behind the boot run: an edit Sim answers with no commit of
	// its own, then the delete. The run the edit triggers starts after
	// the delete was committed, so it is the delete alone that decides
	// whether a second run follows.
	if _, err := h.rt.Store.Patch("H", map[string]any{"meta": map[string]any{"note": "x"}}); err != nil {
		t.Fatal(err)
	}
	if !h.rt.Store.Delete(leaves[1]) {
		t.Fatal("delete failed")
	}
	close(hb.hold)
	drained(t, hb, reg, 2)
	if runs, skipped := hb.runs.Load()-1, reg.Value(coalescedMetric); runs != 2 || skipped != 0 {
		t.Errorf("%d Sim runs and %v coalesced updates, want 2 and 0 (the edit and the delete both simulate)", runs, skipped)
	}
}

// Sim handlers may do anything the draft API allows to the drafts they
// are handed, to drafts kept from earlier runs, and to the values they
// pass in or get back, for as long as they like; the store's committed
// documents — the bases the drafts read through, the Doc every watcher
// shares, the versions that share their untouched subtrees — and the
// composite values in an update's Changes must not change under a
// concurrent reader. A draft exposes no map, so writing through one
// directly does not compile. Run with -race.
func TestHandlersCannotReachCommittedDocuments(t *testing.T) {
	const rounds = 20
	var stash []any           // every composite value the handler passed in or got back
	var drafts []*model.Draft // every draft the handler was ever handed
	vandal := &Kind{
		Schema: &model.Schema{
			Type: "Vandal", Version: "v1", Scene: true,
			Fields: map[string]model.FieldSpec{"round": {Kind: model.KindInt, Default: int64(0)}},
		},
		Sim: func(c *Ctx, work *model.Draft, atts Atts) error {
			n, _ := work.GetInt("round")
			if n >= rounds {
				return nil
			}
			for _, v := range stash {
				switch old := v.(type) {
				case []any:
					old[0] = "late"
				case map[string]any:
					old["late"] = n
				}
			}
			scribble := func(d *model.Draft) {
				d.Set("round", n+1)
				d.Set("nest.deep.n", n+1)
				seq, bag := []any{n}, map[string]any{"n": n}
				d.Set(fmt.Sprintf("nest.k%d", n), seq)
				d.Merge(map[string]any{"bag": bag, "nest": map[string]any{"merged": seq}})
				d.Delete(fmt.Sprintf("nest.k%d", n-1))
				d.Set("meta.scratch", bag)
				nest, _ := d.Get("nest")
				meta, _ := d.Get("meta")
				seq[0], bag["now"] = "now", n
				nest.(map[string]any)["now"] = n
				meta.(map[string]any)["now"] = n
				if att, _ := meta.(map[string]any)["attach"].([]any); len(att) > 0 {
					att[0] = "now"
				}
				stash = append(stash, seq, bag, nest, meta)
			}
			// This run's drafts join every earlier run's, and all are
			// written; only this run's are committed.
			for _, group := range atts {
				for _, child := range group {
					drafts = append(drafts, child)
				}
			}
			drafts = append(drafts, work)
			for _, d := range drafts {
				scribble(d)
			}
			return nil
		},
	}
	h := newHarness(t, vandal, leafKind())
	names := []string{"V", "L0", "L1"}
	for _, leaf := range names[1:] {
		if err := h.rt.Store.Create(leafKind().Schema.New(leaf)); err != nil {
			t.Fatal(err)
		}
	}
	doc := vandal.Schema.New("V")
	doc.SetMeta(model.Meta{Type: "Vandal", Version: "v1", Name: "V", Attach: names[1:]})
	if err := h.rt.Store.Create(doc); err != nil {
		t.Fatal(err)
	}

	// The reader keeps every committed document it ever saw, through
	// View and through a watcher, and every composite value a change
	// carried, next to a copy taken at that moment.
	type held struct{ shared, copied model.Doc }
	var kept []held
	keep := func(d model.Doc) { kept = append(kept, held{d, d.DeepCopy()}) }
	w := h.rt.Store.Watch(nil)
	done := make(chan struct{})
	drained := make(chan struct{}) // the watcher delivered every name's last round
	go func() {
		defer close(done)
		final := map[string]bool{}
		for u := range w.C {
			if n, _ := u.Doc.GetInt("round"); n == rounds && !final[u.Name] {
				if final[u.Name] = true; len(final) == len(names) {
					close(drained)
				}
			}
			keep(u.Doc)
			for _, ch := range u.Changes {
				keep(model.Doc{"old": ch.Old, "new": ch.New})
			}
			for _, name := range names {
				if d, _, ok := h.rt.Store.View(name); ok {
					keep(d)
				}
			}
		}
	}()
	h.start(t, "V")
	waitFor(t, func() bool {
		for _, name := range names {
			d, _, _ := h.rt.Store.View(name)
			if n, _ := d.GetInt("round"); n != rounds {
				return false
			}
		}
		return true
	}, "the vandal to finish")
	h.stop()
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("the watcher never delivered the last round of every document")
	}
	w.Close()
	<-done
	if len(kept) < 3*rounds {
		t.Fatalf("the reader saw only %d documents", len(kept))
	}
	for i, k := range kept {
		if !model.Equal(k.shared, k.copied) {
			t.Fatalf("committed document %d changed after it was read:\nthen %v\nnow  %v", i, k.copied, k.shared)
		}
	}
}

// mixer is a scene that writes only its children: each attached Dial's
// value becomes the mixer's level plus the dial's own bias, which only
// a foreign writer sets. When gate is set, the next run announces
// itself on entered after it has taken its inputs and waits for
// release before committing.
type mixer struct {
	runs    atomic.Int64
	gate    atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (m *mixer) kind() *Kind {
	return &Kind{
		Schema: &model.Schema{
			Type: "Mixer", Version: "v1", Scene: true,
			Fields: map[string]model.FieldSpec{"level": {Kind: model.KindInt, Default: int64(0)}},
		},
		Sim: func(c *Ctx, work *model.Draft, atts Atts) error {
			m.runs.Add(1)
			if m.gate.CompareAndSwap(true, false) {
				m.entered <- struct{}{}
				<-m.release
			}
			level, _ := work.GetInt("level")
			for _, dial := range atts.Get("Dial") {
				bias, _ := dial.GetInt("bias")
				dial.Set("value", level+bias)
			}
			return nil
		},
	}
}

func dialKind() *Kind {
	return &Kind{Schema: &model.Schema{
		Type: "Dial", Version: "v1",
		Fields: map[string]model.FieldSpec{
			"value": {Kind: model.KindInt, Default: int64(0)},
			"bias":  {Kind: model.KindInt, Default: int64(0)},
		},
	}}
}

// mixerHarness runs a Mixer "M" over n Dials (no reconcilers of their
// own) with metrics bound.
func mixerHarness(t *testing.T, mx *mixer, n int) (*harness, *obs.Registry, []string) {
	t.Helper()
	h := newHarness(t, mx.kind(), dialKind())
	reg := obs.NewRegistry()
	h.rt.BindObs(reg)
	dials := make([]string, n)
	for i := range dials {
		dials[i] = fmt.Sprintf("D%02d", i)
		if err := h.rt.Store.Create(dialKind().Schema.New(dials[i])); err != nil {
			t.Fatal(err)
		}
	}
	doc := mx.kind().Schema.New("M")
	doc.SetMeta(model.Meta{Type: "Mixer", Version: "v1", Name: "M", Attach: dials})
	if err := h.rt.Store.Create(doc); err != nil {
		t.Fatal(err)
	}
	h.start(t, "M")
	waitFor(t, func() bool { return mx.runs.Load() == 1 }, "the boot simulate")
	return h, reg, dials
}

func dialValue(h *harness, name string) int64 {
	d, _, _ := h.rt.Store.View(name)
	v, _ := d.GetInt("value")
	return v
}

// mixed waits until the Mixer's reconciler has taken `updates` watch
// updates off its queue since boot, each simulated or coalesced.
func mixed(t *testing.T, mx *mixer, reg *obs.Registry, updates int64) {
	t.Helper()
	waitFor(t, func() bool {
		return mx.runs.Load()-1+int64(reg.Value(coalescedMetric)) == updates
	}, fmt.Sprintf("the reconciler to drain %d updates", updates))
}

// committed waits until the store has made n commits since generation
// gen0. A scene's child commits are not delivered to it, so they are
// the only sign that its run has finished writing.
func committed(t *testing.T, h *harness, gen0, n uint64) {
	t.Helper()
	waitFor(t, func() bool { return h.rt.Store.Gen()-gen0 == n }, fmt.Sprintf("%d commits", n))
}

// A scene that writes only its children runs Sim once per edit of its
// own model: the child commits it made are never delivered to it.
func TestSceneSimulatesOncePerOwnEdit(t *testing.T) {
	const children, edits = 20, 3
	mx := &mixer{}
	h, reg, dials := mixerHarness(t, mx, children)
	gen0 := h.rt.Store.Gen()
	for e := int64(1); e <= edits; e++ {
		if _, err := h.rt.Store.Patch("M", map[string]any{"level": e}); err != nil {
			t.Fatal(err)
		}
		mixed(t, mx, reg, e)
		committed(t, h, gen0, uint64(e)*(1+children))
		if runs := mx.runs.Load() - 1; runs != e {
			t.Fatalf("after %d edits Sim ran %d times, want %d", e, runs, e)
		}
		if got := int64(reg.Value(coalescedMetric)); got != 0 {
			t.Fatalf("after %d edits %s = %d, want 0", e, coalescedMetric, got)
		}
		for _, name := range dials {
			if v := dialValue(h, name); v != e {
				t.Fatalf("%s.value = %d, want %d", name, v, e)
			}
		}
	}
}

// A foreign write to a child that lands after the scene's Sim took its
// inputs and before it committed is newer than anything that run read
// and is delivered to the scene, so it simulates again and the scene
// converges on it. Without the second run D00 would keep the value computed from its
// old bias.
func TestForeignChildWriteDuringSimResimulates(t *testing.T) {
	mx := &mixer{entered: make(chan struct{}), release: make(chan struct{})}
	h, reg, dials := mixerHarness(t, mx, 2)
	gen0 := h.rt.Store.Gen()
	mx.gate.Store(true)
	if _, err := h.rt.Store.Patch("M", map[string]any{"level": int64(5)}); err != nil {
		t.Fatal(err)
	}
	<-mx.entered // the run has read level=5 and both biases of 0
	if _, err := h.rt.Store.Patch(dials[0], map[string]any{"bias": int64(100)}); err != nil {
		t.Fatal(err)
	}
	close(mx.release)
	// The edit and the foreign bias write; the blocked run's two child
	// commits and the second run's commit of D00 are not delivered.
	mixed(t, mx, reg, 2)
	committed(t, h, gen0, 5)
	if runs := mx.runs.Load() - 1; runs != 2 {
		t.Errorf("Sim ran %d times after the edit, want 2 (the edit and the foreign write)", runs)
	}
	if got := reg.Value(coalescedMetric); got != 0 {
		t.Errorf("%s = %v, want 0 (no child commit is delivered)", coalescedMetric, got)
	}
	want := map[string]int64{dials[0]: 105, dials[1]: 5}
	for name, v := range want {
		if got := dialValue(h, name); got != v {
			t.Errorf("%s.value = %d, want %d", name, got, v)
		}
	}
}
