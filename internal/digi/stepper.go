package digi

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/rng"
)

// Stepper is the synchronous reconciliation core of one digi: the
// tick/simulate/update logic with no goroutine, channel, or clock of
// its own. The live reconciler (Runtime.run) wraps a Stepper in a
// watcher + ticker loop; the deterministic replay engine drives the
// same Stepper from a virtual clock instead, so recorded and replayed
// runs execute identical handler code.
//
// Every method returns the model updates it committed, in commit
// order, so a single-threaded caller can propagate them to other
// steppers deterministically rather than racing store watchers.
type Stepper struct {
	rt   *Runtime
	name string
	kind *Kind
	c    *Ctx
	// via is the live reconciler's watcher (nil in replay): child
	// commits go through it, so they are not sent back to it.
	via *model.Watcher
}

// simDrafts recycles the draft of its own model that Simulate hands a
// handler: a reconcile allocates none, and a digi between reconciles
// holds none, which matters with a thousand mocks on one testbed.
var simDrafts = sync.Pool{New: func() any { return new(model.Draft) }}

// NewStepper builds the reconciliation core for a digi whose model is
// already in the runtime's store. ctx bounds Ctx.Sleep and is exposed
// to handlers via Ctx.Context.
func (rt *Runtime) NewStepper(ctx context.Context, name string) (*Stepper, error) {
	doc, _, ok := rt.Store.View(name)
	if !ok {
		return nil, fmt.Errorf("digi: model %q not found", name)
	}
	kind, ok := rt.Registry.Get(doc.Type())
	if !ok {
		return nil, fmt.Errorf("digi: kind %q not registered", doc.Type())
	}
	seed := rng.Key(name)
	if v, ok := doc.GetInt("meta.seed"); ok {
		seed = uint64(v)
	}
	s := &Stepper{rt: rt, name: name, kind: kind}
	s.c = &Ctx{
		Name:  name,
		Type:  doc.Type(),
		Rand:  rng.New(seed, 0),
		rt:    rt,
		kind:  kind,
		ctx:   ctx,
		topic: statusTopic(name),
	}
	if m := rt.metrics.Load(); m != nil {
		s.c.events, s.c.publishes = m.events.With(name), m.publishes.With(name)
	}
	return s, nil
}

// Interval returns the digi's Loop period: the kind default (500ms if
// unset), overridden by the meta config interval_ms.
func (s *Stepper) Interval() time.Duration {
	interval := s.kind.DefaultInterval
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	if d := s.c.ConfigDuration("interval", interval); d > 0 {
		interval = d
	}
	return interval
}

// LogSnapshot logs the digi's full current model as an action record
// so traces are self-contained (replay and offline property checking
// reconstruct state without the original testbed).
func (s *Stepper) LogSnapshot() {
	if snap, _, ok := s.rt.Store.View(s.name); ok {
		s.rt.Log.Action(s.name, snap.Type(), model.Flatten(snap), nil)
	}
}

// Tick fires the event generator while the model is managed and the
// simulated device is not offline (fault injection). It returns the
// updates it committed.
func (s *Stepper) Tick() []model.Update {
	if s.kind.Loop == nil {
		return nil
	}
	doc, _, ok := s.rt.Store.View(s.name)
	if !ok {
		return nil
	}
	if !doc.Managed() || doc.GetBool("meta.offline") {
		return nil
	}
	switch doc.GetString("meta.fault") {
	case "dropout":
		// The sensor goes silent: no events, no status publishes.
		return nil
	case "stuck":
		// The reading is frozen, but the device keeps reporting it:
		// skip the event generator and rerun the simulation handler so
		// the unchanged status is republished each tick.
		return s.Simulate()
	}
	work := model.NewDraft(doc)
	if err := s.kind.Loop(s.c, work); err != nil {
		s.rt.Log.Violation(s.name, "loop-error", err.Error())
		return nil
	}
	changes := work.Changes()
	if len(changes) == 0 {
		return nil
	}
	fields := map[string]any{}
	for _, ch := range changes {
		if ch.Op == model.OpSet {
			fields[ch.Path] = ch.New
		}
	}
	s.rt.Log.Event(s.name, s.c.Type, fields)
	s.c.events.Inc()
	if u, ok := s.commit(s.name, nil, changes); ok {
		return []model.Update{u}
	}
	return nil
}

// HandleUpdate reacts to a committed change of the digi's own model or
// of an attached child's model, returning the updates it committed in
// response.
func (s *Stepper) HandleUpdate(u model.Update) []model.Update {
	s.LogUpdate(u)
	if u.Deleted && u.Name == s.name {
		return nil
	}
	// A deleted child falls out of atts on the next simulate.
	return s.Simulate()
}

// LogUpdate writes the digi-side action record for a change of the
// digi's own model (§3.5: changes are logged at the mock as well as at
// the scene that caused them). Other updates log nothing.
func (s *Stepper) LogUpdate(u model.Update) {
	if u.Deleted || u.Name != s.name {
		return
	}
	sets := map[string]any{}
	var deletes []string
	for _, ch := range u.Changes {
		if ch.Op == model.OpDelete {
			deletes = append(deletes, ch.Path)
		} else {
			sets[ch.Path] = ch.New
		}
	}
	s.rt.Log.Action(s.name, u.Type, sets, deletes)
}

// Simulate runs the Sim handler on drafts of the own model and the
// attached children, then commits whatever the handler changed. Child
// commits happen in sorted (type, name) order so the resulting update
// sequence — and hence the trace — is deterministic. Each draft reads
// through to the store's committed document, and copies only the maps
// the handler writes through.
func (s *Stepper) Simulate() []model.Update {
	if s.kind.Sim == nil {
		return nil
	}
	doc, _, ok := s.rt.Store.View(s.name)
	if !ok {
		return nil
	}
	if doc.GetBool("meta.offline") {
		return nil
	}
	work := simDrafts.Get().(*model.Draft)
	*work = *model.NewDraft(doc)
	defer func() {
		*work = model.Draft{}
		simDrafts.Put(work)
	}()

	// The children in commit order, each name once (the first it was
	// attached as), with the draft handed out. The drafts are allocated
	// together, and each kind's map is sized to that kind's count.
	type child struct {
		typ, name string
		base      model.Doc
		draft     *model.Draft
	}
	attached := doc.Attach()
	kids := make([]child, 0, len(attached))
	for _, childName := range attached {
		if base, _, ok := s.rt.Store.View(childName); ok {
			kids = append(kids, child{typ: base.Type(), name: childName, base: base})
		}
	}
	slices.SortStableFunc(kids, func(a, b child) int {
		return cmp.Or(strings.Compare(a.typ, b.typ), strings.Compare(a.name, b.name))
	})
	kids = slices.CompactFunc(kids, func(a, b child) bool { return a.typ == b.typ && a.name == b.name })
	drafts := make([]model.Draft, len(kids))
	var atts Atts // nil for a mock: no handler writes into atts
	if len(kids) > 0 {
		atts = Atts{}
	}
	for i := range kids {
		k := &kids[i]
		drafts[i] = *model.NewDraft(k.base)
		k.draft = &drafts[i]
		if atts[k.typ] == nil {
			n := 1
			for i+n < len(kids) && kids[i+n].typ == k.typ {
				n++
			}
			atts[k.typ] = make(map[string]*model.Draft, n)
		}
		atts[k.typ][k.name] = k.draft
	}

	if err := s.kind.Sim(s.c, work, atts); err != nil {
		s.rt.Log.Violation(s.name, "sim-error", err.Error())
		return nil
	}

	var out []model.Update
	// Commit own-model changes.
	if changes := work.Changes(); len(changes) > 0 {
		if u, ok := s.commit(s.name, nil, changes); ok {
			out = append(out, u)
		}
	}
	// Commit child changes (scene coordination) in sorted order. Each
	// write is logged at the scene as a coordination event, all of them
	// before the first commit, so no child's reaction is logged ahead of
	// a sibling's write; the child's own reconciler logs the action when
	// it observes the commit.
	type write struct {
		child   string
		draft   *model.Draft
		changes []model.Change
	}
	writes := make([]write, 0, len(kids))
	for _, k := range kids {
		changes := k.draft.Changes()
		if len(changes) == 0 {
			continue
		}
		fields := map[string]any{"target": k.name, "target_type": k.typ}
		for _, ch := range changes {
			if ch.Op == model.OpSet {
				fields[ch.Path] = ch.New
			}
		}
		s.rt.Log.Event(s.name, s.c.Type, fields)
		s.c.events.Inc()
		writes = append(writes, write{k.name, k.draft, changes})
	}
	if len(writes) > 0 {
		out = slices.Grow(out, len(writes))
	}
	for _, w := range writes {
		if u, ok := s.commit(w.child, w.draft, w.changes); ok {
			out = append(out, u)
		}
	}
	return out
}

// commit applies a change set to a model, timing it into the
// commit-latency histogram when metrics are bound. A child commit goes
// through via, when set, and commits d, the draft changes came from; an
// own-model commit, and every commit in replay, reaches every watcher
// through Store.Commit. The returned bool reports whether the store
// actually committed a change.
func (s *Stepper) commit(name string, d *model.Draft, changes []model.Change) (model.Update, bool) {
	m := s.rt.metrics.Load()
	var t0 time.Time
	if m != nil {
		t0 = s.rt.clk().Now()
	}
	var u model.Update
	var err error
	if s.via != nil && name != s.name {
		u, err = s.via.CommitDraft(name, d, changes)
	} else {
		u, err = s.rt.Store.Commit(name, changes)
	}
	if m != nil {
		m.commits.Observe(s.rt.clk().Since(t0).Seconds())
	}
	if err != nil {
		return model.Update{}, false
	}
	return u, len(u.Changes) > 0
}
