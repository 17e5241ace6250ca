package model

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/queue"
)

// Update describes one committed change to a stored model.
type Update struct {
	Name    string
	Type    string
	Gen     uint64 // store-wide monotonic generation
	Doc     Doc    // the committed document itself (see Store.View): shared, read-only
	Changes []Change
	Deleted bool // true when the model was removed
}

// Store holds the live models of a testbed. All methods are safe for
// concurrent use. Readers get deep-copied snapshots (or, from View, the
// immutable committed document itself); writers build the next version
// beside the current one and swap it in, so a mutation and its diff
// are atomic and a committed document never changes. Versions share
// whatever a commit did not touch.
//
// Readers take no lock. Models live in one concurrent index that only
// Create and Delete change, and each entry points at its current
// version, which a commit replaces with one atomic store. Writers are
// serialised on mu, and each publishes its version (or index change)
// before it advances the generation, so a reader that sees Gen() == g
// sees every commit up to g through View.
//
// A commit reaches only the watchers indexed under its model's name
// (and the few predicate watchers), each in commit order through its
// own queue.Queue, so a slow consumer never blocks writers.
type Store struct {
	mu     sync.Mutex // serialises writers and watcher registration
	docs   sync.Map   // name → *entry
	gen    atomic.Uint64
	byName map[string][]*Watcher // a name has one to three watchers: a slice, not a set
	preds  map[*Watcher]struct{} // predicate watchers, asked on every commit
}

// entry is one model's slot in the index; a commit swaps cur.
type entry struct{ cur atomic.Pointer[version] }

// version is one committed document and the generation that committed
// it. It is immutable.
type version struct {
	doc Doc
	gen uint64
}

// NewStore returns an empty model store.
func NewStore() *Store {
	return &Store{
		byName: map[string][]*Watcher{},
		preds:  map[*Watcher]struct{}{},
	}
}

// lookup returns the named model's entry.
func (s *Store) lookup(name string) (*entry, bool) {
	e, ok := s.docs.Load(name)
	if !ok {
		return nil, false
	}
	return e.(*entry), true
}

// Create adds a model. The name comes from meta.name and must be
// unique in the store.
func (s *Store) Create(d Doc) error {
	meta, err := d.Meta()
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.lookup(meta.Name); exists {
		return fmt.Errorf("model: %q already exists", meta.Name)
	}
	gen := s.gen.Load() + 1
	snapshot := d.DeepCopy()
	e := &entry{}
	e.cur.Store(&version{doc: snapshot, gen: gen})
	s.docs.Store(meta.Name, e)
	s.gen.Store(gen)
	var changes []Change
	addLeavesForCreate(snapshot, &changes)
	s.broadcast(Update{Name: meta.Name, Type: meta.Type, Gen: gen, Doc: snapshot, Changes: changes}, nil)
	return nil
}

func addLeavesForCreate(d Doc, out *[]Change) {
	diffValue("", map[string]any{}, map[string]any(d), out)
	sort.Slice(*out, func(i, j int) bool { return (*out)[i].Path < (*out)[j].Path })
}

// Get returns a deep-copied snapshot and its generation.
func (s *Store) Get(name string) (Doc, uint64, bool) {
	d, gen, ok := s.View(name)
	if !ok {
		return nil, 0, false
	}
	return d.DeepCopy(), gen, true
}

// View returns the committed document itself, not a copy, and its
// generation. Committed documents are immutable (a commit replaces the
// entry's version, never mutates it) and versions share subtrees, so
// the result is read-only: DeepCopy it, or write a Draft of it, before
// changing anything.
func (s *Store) View(name string) (Doc, uint64, bool) {
	e, ok := s.lookup(name)
	if !ok {
		return nil, 0, false
	}
	v := e.cur.Load()
	return v.doc, v.gen, true
}

// Has reports whether a model exists.
func (s *Store) Has(name string) bool {
	_, ok := s.lookup(name)
	return ok
}

// List returns the stored model names in sorted order.
func (s *Store) List() []string {
	var names []string
	s.docs.Range(func(name, _ any) bool {
		names = append(names, name.(string))
		return true
	})
	sort.Strings(names)
	return names
}

// Apply atomically edits a model through fn, which is handed a Draft
// of the committed document, and publishes the draft's Changes. If fn
// returns an error the model is unchanged. If fn changes nothing, no
// update is published and the returned Update has Gen of the current
// entry with empty Changes.
func (s *Store) Apply(name string, fn func(*Draft) error) (Update, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.lookup(name)
	if !ok {
		return Update{}, fmt.Errorf("model: %q not found", name)
	}
	cur := e.cur.Load()
	d := NewDraft(cur.doc)
	if err := fn(d); err != nil {
		return Update{}, err
	}
	next, changes := d.seal()
	return s.swap(name, e, cur, next, changes, nil), nil
}

// Commit writes a change list to a model: each set writes a copy of
// its New value, each delete removes its path if present, on one
// Draft of the current document, so the new version copies only the
// maps on the changed paths and shares every other subtree with the
// previous one. Update.Changes is the diff against the store's current
// document, so changes computed from a stale base report only what
// they really altered.
func (s *Store) Commit(name string, changes []Change) (Update, error) {
	return s.commit(name, nil, changes, nil)
}

// commit is Commit with every watcher but skip sent the update. If d
// is non-nil, still a draft of the committed version, and its changes
// rebuild it exactly (Draft.replays), its document is committed as it
// stands and changes, its Changes, are the diff; otherwise changes are
// replayed on the current document, so the version committed is the
// one replay rebuilds. Either way d is rebased on the committed
// version, as Apply rebases its draft.
func (s *Store) commit(name string, d *Draft, changes []Change, skip *Watcher) (Update, error) {
	exact := d != nil && d.replays()
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.lookup(name)
	if !ok {
		return Update{}, fmt.Errorf("model: %q not found", name)
	}
	cur := e.cur.Load()
	var next Doc
	if exact && mapID(d.base) == mapID(cur.doc) {
		next = d.view()
	} else {
		r := Draft{base: cur.doc}
		r.apply(changes)
		next, changes = r.seal()
	}
	up := s.swap(name, e, cur, next, changes, skip)
	if d != nil {
		*d = Draft{base: up.Doc}
	}
	return up, nil
}

// swap makes next the committed document of e, replacing cur, and
// queues the update for every watcher but skip; with no changes the
// entry stays as it is and nothing is published. The version is
// stored before the generation advances. Called with s.mu held.
func (s *Store) swap(name string, e *entry, cur *version, next Doc, changes []Change, skip *Watcher) Update {
	if len(changes) == 0 {
		return Update{Name: name, Type: cur.doc.Type(), Gen: cur.gen, Doc: cur.doc}
	}
	gen := s.gen.Load() + 1
	e.cur.Store(&version{doc: next, gen: gen})
	s.gen.Store(gen)
	up := Update{Name: name, Type: next.Type(), Gen: gen, Doc: next, Changes: changes}
	s.broadcast(up, skip)
	return up
}

// Patch deep-merges a patch document into the model (see Draft.Merge).
func (s *Store) Patch(name string, patch map[string]any) (Update, error) {
	return s.Apply(name, func(d *Draft) error {
		d.Merge(patch)
		return nil
	})
}

// Delete removes a model and notifies watchers.
func (s *Store) Delete(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.lookup(name)
	if !ok {
		return false
	}
	s.docs.Delete(name)
	gen := s.gen.Load() + 1
	s.gen.Store(gen)
	doc := e.cur.Load().doc
	s.broadcast(Update{Name: name, Type: doc.Type(), Gen: gen, Doc: doc, Deleted: true}, nil)
	return true
}

// Gen returns the store's current generation.
func (s *Store) Gen() uint64 { return s.gen.Load() }

// Watcher delivers updates on C until Close is called. Updates arrive
// in commit order; the queue is unbounded so no update is dropped.
type Watcher struct {
	C <-chan Update

	q      *queue.Queue[Update]
	store  *Store
	filter func(Update) bool // predicate watchers only
	names  []string          // the byName keys holding this watcher; guarded by store.mu
}

// Watch registers a predicate watcher. filter may be nil to receive
// everything; otherwise only updates for which filter returns true are
// queued. filter runs on every commit, under the store's write lock: it
// must not call the store. WatchNames costs other models' commits nothing.
func (s *Store) Watch(filter func(Update) bool) *Watcher {
	q := queue.New[Update]()
	w := &Watcher{C: q.C, q: q, store: s, filter: filter}
	s.mu.Lock()
	s.preds[w] = struct{}{}
	s.mu.Unlock()
	return w
}

// WatchNames registers a watcher for the updates of the named models.
func (s *Store) WatchNames(names ...string) *Watcher {
	q := queue.New[Update]()
	w := &Watcher{C: q.C, q: q, store: s}
	w.SetNames(names...)
	return w
}

// WatchName is a convenience for watching a single model by name.
func (s *Store) WatchName(name string) *Watcher { return s.WatchNames(name) }

// SetNames replaces the set of models a WatchNames watcher follows. A
// commit made before the call is delivered by the old set, one made
// after it by the new.
func (w *Watcher) SetNames(names ...string) {
	s := w.store
	s.mu.Lock()
	defer s.mu.Unlock()
	s.unindex(w)
	w.names = append(w.names, names...)
	for _, n := range w.names {
		if ws := s.byName[n]; !slices.Contains(ws, w) {
			s.byName[n] = append(ws, w)
		}
	}
}

// unindex takes w out of byName. Called with s.mu held.
func (s *Store) unindex(w *Watcher) {
	for _, n := range w.names {
		if ws := slices.DeleteFunc(s.byName[n], func(x *Watcher) bool { return x == w }); len(ws) > 0 {
			s.byName[n] = ws
		} else {
			delete(s.byName, n)
		}
	}
	w.names = w.names[:0]
}

// broadcast queues u for every watcher that follows it except skip.
// Called with s.mu held; Push only takes the watcher's queue lock,
// never blocks on consumers.
func (s *Store) broadcast(u Update, skip *Watcher) {
	for _, w := range s.byName[u.Name] {
		if w != skip {
			w.q.Push(u)
		}
	}
	for w := range s.preds {
		if w != skip && (w.filter == nil || w.filter(u)) {
			w.q.Push(u)
		}
	}
}

// CommitDraft is Store.Commit made by w's consumer: every watcher but
// w is sent the update, so a reconciler is not told of the writes it
// makes to other models. changes must be d.Changes(), with no write to
// d since. While d is still a draft of the committed version, and
// changes rebuild its document exactly (no number that changed only
// its type, no dotted key on a written path: Draft.replays), the
// commit takes d's document as it stands and changes as its diff, so
// nothing is copied or diffed twice; otherwise changes are replayed as
// Commit replays them, so the store holds what replay rebuilds. Either
// way d is rebased, as Apply rebases its draft: a later write to it
// copies again and cannot reach what was committed. The skip is
// decided under the store's write lock, with the commit itself.
func (w *Watcher) CommitDraft(name string, d *Draft, changes []Change) (Update, error) {
	return w.store.commit(name, d, changes, w)
}

// Close unregisters the watcher. The consumer may stop reading C
// immediately; C is closed, with anything still queued dropped, by the
// time Close returns.
func (w *Watcher) Close() {
	w.store.mu.Lock()
	w.store.unindex(w)
	delete(w.store.preds, w)
	w.store.mu.Unlock()
	w.q.Close()
}
