package model

import (
	"fmt"
	"slices"
	"sort"
	"sync"

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
// under an exclusive section and swap it in, so a mutation and its diff
// are atomic and a committed document never changes. Versions share
// whatever a commit did not touch.
//
// A commit reaches only the watchers indexed under its model's name
// (and the few predicate watchers), each in commit order through its
// own queue.Queue, so a slow consumer never blocks writers.
type Store struct {
	mu     sync.RWMutex
	docs   map[string]*entry
	byName map[string][]*Watcher // a name has one to three watchers: a slice, not a set
	preds  map[*Watcher]struct{} // predicate watchers, asked on every commit
	gen    uint64
}

type entry struct {
	doc Doc
	gen uint64
}

// NewStore returns an empty model store.
func NewStore() *Store {
	return &Store{
		docs:   map[string]*entry{},
		byName: map[string][]*Watcher{},
		preds:  map[*Watcher]struct{}{},
	}
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
	if _, exists := s.docs[meta.Name]; exists {
		return fmt.Errorf("model: %q already exists", meta.Name)
	}
	s.gen++
	snapshot := d.DeepCopy()
	s.docs[meta.Name] = &entry{doc: snapshot, gen: s.gen}
	var changes []Change
	addLeavesForCreate(snapshot, &changes)
	s.broadcast(Update{Name: meta.Name, Type: meta.Type, Gen: s.gen, Doc: snapshot, Changes: changes})
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
// entry's document, never mutates it) and versions share subtrees, so
// the result is read-only: DeepCopy it before changing anything.
func (s *Store) View(name string) (Doc, uint64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.docs[name]
	if !ok {
		return nil, 0, false
	}
	return e.doc, e.gen, true
}

// Has reports whether a model exists.
func (s *Store) Has(name string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.docs[name]
	return ok
}

// List returns the stored model names in sorted order.
func (s *Store) List() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.docs))
	for n := range s.docs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Apply atomically mutates a model via fn and publishes the diff. If
// fn returns an error the model is unchanged. If fn changes nothing,
// no update is published and the returned Update has Gen of the
// current entry with empty Changes.
func (s *Store) Apply(name string, fn func(Doc) error) (Update, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.docs[name]
	if !ok {
		return Update{}, fmt.Errorf("model: %q not found", name)
	}
	work := e.doc.DeepCopy()
	if err := fn(work); err != nil {
		return Update{}, err
	}
	return s.swap(name, e, work, Diff(e.doc, work)), nil
}

// Commit is Apply with Doc.ApplyChanges, minus the deep copy: the new
// version copies only the maps on the changed paths and shares every
// other subtree with the previous one. Update.Changes is the diff
// against the store's current document, so changes computed from a
// stale base report only what they really altered.
func (s *Store) Commit(name string, changes []Change) (Update, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.docs[name]
	if !ok {
		return Update{}, fmt.Errorf("model: %q not found", name)
	}
	next, changed := e.doc.withChanges(changes)
	return s.swap(name, e, next, changed), nil
}

// swap makes next the committed document of e and queues the update;
// with no changes the entry stays as it is and nothing is published.
// Called with s.mu held.
func (s *Store) swap(name string, e *entry, next Doc, changes []Change) Update {
	if len(changes) == 0 {
		return Update{Name: name, Type: e.doc.Type(), Gen: e.gen, Doc: e.doc}
	}
	s.gen++
	e.doc, e.gen = next, s.gen
	up := Update{Name: name, Type: next.Type(), Gen: s.gen, Doc: next, Changes: changes}
	s.broadcast(up)
	return up
}

// Patch deep-merges a patch document into the model (see Doc.Merge).
func (s *Store) Patch(name string, patch map[string]any) (Update, error) {
	return s.Apply(name, func(d Doc) error {
		d.Merge(patch)
		return nil
	})
}

// Delete removes a model and notifies watchers.
func (s *Store) Delete(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.docs[name]
	if !ok {
		return false
	}
	delete(s.docs, name)
	s.gen++
	s.broadcast(Update{Name: name, Type: e.doc.Type(), Gen: s.gen, Doc: e.doc, Deleted: true})
	return true
}

// Gen returns the store's current generation.
func (s *Store) Gen() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gen
}

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

func (s *Store) broadcast(u Update) {
	// Called with s.mu held; Push only takes the watcher's queue lock,
	// never blocks on consumers.
	for _, w := range s.byName[u.Name] {
		w.q.Push(u)
	}
	for w := range s.preds {
		if w.filter == nil || w.filter(u) {
			w.q.Push(u)
		}
	}
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
