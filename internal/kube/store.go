package kube

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// apiServer is the cluster's object store: versioned pods and nodes
// with ordered watch streams. It is the analogue of the Kubernetes API
// server + etcd for the subset of behaviour Digibox needs.
type apiServer struct {
	// now is the cluster's clock (see Cluster.SetClock); pod
	// timestamps come from it so virtual-clock runs stamp virtual
	// times.
	now func() time.Time

	mu      sync.RWMutex
	version uint64
	pods    map[string]*Pod
	nodes   map[string]*Node

	watchMu  sync.Mutex
	watchers map[int]*podWatcher
	nextID   int
}

func newAPIServer() *apiServer {
	return &apiServer{
		pods:     map[string]*Pod{},
		nodes:    map[string]*Node{},
		watchers: map[int]*podWatcher{},
	}
}

// --- pods ---

func (a *apiServer) createPod(p *Pod) error {
	a.mu.Lock()
	if _, exists := a.pods[p.Name]; exists {
		a.mu.Unlock()
		return fmt.Errorf("kube: pod %q already exists", p.Name)
	}
	a.version++
	stored := p.DeepCopy()
	stored.ResourceVersion = a.version
	if stored.Status.Phase == "" {
		stored.Status.Phase = PodPending
	}
	if stored.Status.CreatedAt.IsZero() {
		stored.Status.CreatedAt = a.now()
	}
	if stored.Spec.RestartPolicy == "" {
		stored.Spec.RestartPolicy = RestartAlways
	}
	a.pods[stored.Name] = stored
	a.broadcast(PodEvent{Type: Added, Pod: stored.DeepCopy()})
	a.mu.Unlock()
	return nil
}

func (a *apiServer) getPod(name string) (*Pod, error) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	p, ok := a.pods[name]
	if !ok {
		return nil, ErrNotFound{"pod", name}
	}
	return p.DeepCopy(), nil
}

// updatePod applies fn to the stored pod under the store lock. If fn
// returns false the update is abandoned without a version bump.
func (a *apiServer) updatePod(name string, fn func(*Pod) bool) (*Pod, error) {
	a.mu.Lock()
	p, ok := a.pods[name]
	if !ok {
		a.mu.Unlock()
		return nil, ErrNotFound{"pod", name}
	}
	if !fn(p) {
		out := p.DeepCopy()
		a.mu.Unlock()
		return out, nil
	}
	a.version++
	p.ResourceVersion = a.version
	out := p.DeepCopy()
	a.broadcast(PodEvent{Type: Modified, Pod: p.DeepCopy()})
	a.mu.Unlock()
	return out, nil
}

func (a *apiServer) deletePod(name string) error {
	a.mu.Lock()
	p, ok := a.pods[name]
	if !ok {
		a.mu.Unlock()
		return ErrNotFound{"pod", name}
	}
	delete(a.pods, name)
	a.version++
	a.broadcast(PodEvent{Type: Deleted, Pod: p.DeepCopy()})
	a.mu.Unlock()
	return nil
}

func (a *apiServer) listPods() []*Pod {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]*Pod, 0, len(a.pods))
	for _, p := range a.pods {
		out = append(out, p.DeepCopy())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// --- nodes ---

func (a *apiServer) registerNode(n *Node) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, exists := a.nodes[n.Name]; exists {
		return fmt.Errorf("kube: node %q already exists", n.Name)
	}
	a.version++
	stored := n.DeepCopy()
	stored.ResourceVersion = a.version
	a.nodes[stored.Name] = stored
	return nil
}

func (a *apiServer) getNode(name string) (*Node, error) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	n, ok := a.nodes[name]
	if !ok {
		return nil, ErrNotFound{"node", name}
	}
	return n.DeepCopy(), nil
}

func (a *apiServer) updateNode(name string, fn func(*Node)) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	n, ok := a.nodes[name]
	if !ok {
		return ErrNotFound{"node", name}
	}
	fn(n)
	a.version++
	n.ResourceVersion = a.version
	return nil
}

func (a *apiServer) listNodes() []*Node {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]*Node, 0, len(a.nodes))
	for _, n := range a.nodes {
		out = append(out, n.DeepCopy())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// --- watch ---

// podWatcher delivers pod events in commit order on C, decoupled from
// writers by an unbounded queue (see model.Watcher for rationale).
type podWatcher struct {
	C <-chan PodEvent

	api    *apiServer
	id     int
	filter func(PodEvent) bool

	qmu    sync.Mutex
	qcond  *sync.Cond
	queue  []PodEvent
	closed bool
	done   chan struct{}
}

// watchPods registers a watcher; existing pods are replayed first as
// ADDED events (a "list+watch" in one call, like a k8s informer).
func (a *apiServer) watchPods(filter func(PodEvent) bool) *podWatcher {
	ch := make(chan PodEvent)
	w := &podWatcher{C: ch, api: a, filter: filter, done: make(chan struct{})}
	w.qcond = sync.NewCond(&w.qmu)

	// Snapshot + register atomically with respect to writers so no
	// event is missed or duplicated.
	a.mu.Lock()
	var initial []PodEvent
	for _, p := range a.pods {
		initial = append(initial, PodEvent{Type: Added, Pod: p.DeepCopy()})
	}
	sort.Slice(initial, func(i, j int) bool { return initial[i].Pod.Name < initial[j].Pod.Name })
	for _, ev := range initial {
		if filter == nil || filter(ev) {
			w.enqueue(ev)
		}
	}
	a.watchMu.Lock()
	w.id = a.nextID
	a.nextID++
	a.watchers[w.id] = w
	a.watchMu.Unlock()
	a.mu.Unlock()

	go w.pump(ch)
	return w
}

// broadcast is called with a.mu held so that watcher registration
// (which snapshots under a.mu) can never observe an event twice or
// miss one. Enqueueing never blocks on consumers.
func (a *apiServer) broadcast(ev PodEvent) {
	a.watchMu.Lock()
	defer a.watchMu.Unlock()
	for _, w := range a.watchers {
		if w.filter != nil && !w.filter(ev) {
			continue
		}
		w.enqueue(PodEvent{Type: ev.Type, Pod: ev.Pod.DeepCopy()})
	}
}

func (w *podWatcher) enqueue(ev PodEvent) {
	w.qmu.Lock()
	if !w.closed {
		w.queue = append(w.queue, ev)
		w.qcond.Signal()
	}
	w.qmu.Unlock()
}

func (w *podWatcher) pump(ch chan PodEvent) {
	defer close(ch)
	for {
		w.qmu.Lock()
		for len(w.queue) == 0 && !w.closed {
			w.qcond.Wait()
		}
		if w.closed && len(w.queue) == 0 {
			w.qmu.Unlock()
			return
		}
		ev := w.queue[0]
		// Zero the slot: the backing array outlives the reslice, and
		// would keep the event's pod reachable until it regrows.
		w.queue[0] = PodEvent{}
		w.queue = w.queue[1:]
		w.qmu.Unlock()
		select {
		case ch <- ev:
		case <-w.done:
			return
		}
	}
}

// Close unregisters the watcher.
func (w *podWatcher) Close() {
	w.api.watchMu.Lock()
	delete(w.api.watchers, w.id)
	w.api.watchMu.Unlock()
	w.qmu.Lock()
	if !w.closed {
		w.closed = true
		close(w.done)
		w.qcond.Signal()
	}
	w.qmu.Unlock()
}
