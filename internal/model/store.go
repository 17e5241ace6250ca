package model

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/queue"
)

// Update describes one committed change to a stored model.
type Update struct {
	Name    string
	Type    string
	Gen     uint64 // store-wide monotonic generation
	Doc     Doc    // snapshot after the change: one instance shared by every watcher, read-only
	Changes []Change
	Deleted bool // true when the model was removed
}

// Store holds the live models of a testbed. All methods are safe for
// concurrent use. Readers get deep-copied snapshots (or, from View, the
// immutable committed document itself); writers mutate a copy under an
// exclusive section and swap it in, so a mutation and its diff are
// atomic and a committed document never changes.
//
// Watchers receive every committed update in order, each through its
// own queue.Queue, so a slow consumer never blocks writers.
type Store struct {
	mu       sync.RWMutex
	docs     map[string]*entry
	watchers map[*Watcher]struct{}
	gen      uint64
}

type entry struct {
	doc Doc
	gen uint64
}

// NewStore returns an empty model store.
func NewStore() *Store {
	return &Store{
		docs:     map[string]*entry{},
		watchers: map[*Watcher]struct{}{},
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
	s.broadcast(Update{Name: meta.Name, Type: meta.Type, Gen: s.gen, Doc: snapshot.DeepCopy(), Changes: changes})
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
// generation. Committed documents are immutable (Apply replaces the
// entry's document, never mutates it), so the result is shared and
// read-only: DeepCopy it before changing anything.
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

// Snapshot returns deep copies of all models, keyed by name.
func (s *Store) Snapshot() map[string]Doc {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]Doc, len(s.docs))
	for n, e := range s.docs {
		out[n] = e.doc.DeepCopy()
	}
	return out
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
	changes := Diff(e.doc, work)
	if len(changes) == 0 {
		return Update{Name: name, Type: work.Type(), Gen: e.gen, Doc: work}, nil
	}
	s.gen++
	e.doc = work
	e.gen = s.gen
	up := Update{Name: name, Type: work.Type(), Gen: s.gen, Doc: work.DeepCopy(), Changes: changes}
	s.broadcast(up)
	return up, nil
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
	s.broadcast(Update{Name: name, Type: e.doc.Type(), Gen: s.gen, Doc: e.doc.DeepCopy(), Deleted: true})
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
	filter func(Update) bool
}

// Watch registers a watcher. filter may be nil to receive everything;
// otherwise only updates for which filter returns true are queued.
func (s *Store) Watch(filter func(Update) bool) *Watcher {
	q := queue.New[Update]()
	w := &Watcher{C: q.C, q: q, store: s, filter: filter}
	s.mu.Lock()
	s.watchers[w] = struct{}{}
	s.mu.Unlock()
	return w
}

// WatchName is a convenience for watching a single model by name.
func (s *Store) WatchName(name string) *Watcher {
	return s.Watch(func(u Update) bool { return u.Name == name })
}

func (s *Store) broadcast(u Update) {
	// Called with s.mu held; Push only takes the watcher's queue lock,
	// never blocks on consumers.
	for w := range s.watchers {
		if w.filter != nil && !w.filter(u) {
			continue
		}
		w.q.Push(u)
	}
}

// Close unregisters the watcher. The consumer may stop reading C
// immediately; the pump goroutine exits and C is eventually closed.
func (w *Watcher) Close() {
	w.store.mu.Lock()
	delete(w.store.watchers, w)
	w.store.mu.Unlock()
	w.q.Close()
}
