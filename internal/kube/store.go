package kube

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/queue"
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

	// Watch registry, guarded by mu. An event reaches the watchers
	// indexed under its pod's name and the few predicate watchers
	// (scheduler, node agents, BindBus).
	byName map[string][]*podWatcher
	preds  map[*podWatcher]struct{}
}

func newAPIServer() *apiServer {
	return &apiServer{
		pods:   map[string]*Pod{},
		nodes:  map[string]*Node{},
		byName: map[string][]*podWatcher{},
		preds:  map[*podWatcher]struct{}{},
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
	a.broadcast(PodEvent{Type: Added, Pod: stored})
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

// updatePod applies fn to a copy of the stored pod under the store
// lock and stores the copy in its place, so a published pod never
// changes. If fn returns false the update is abandoned without a
// version bump.
func (a *apiServer) updatePod(name string, fn func(*Pod) bool) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	p, ok := a.pods[name]
	if !ok {
		return ErrNotFound{"pod", name}
	}
	next := p.DeepCopy()
	if !fn(next) {
		return nil
	}
	a.version++
	next.ResourceVersion = a.version
	a.pods[name] = next
	a.broadcast(PodEvent{Type: Modified, Pod: next})
	return nil
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
	a.broadcast(PodEvent{Type: Deleted, Pod: p})
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

// nodeZone reads a node's zone ("" if unknown) without copying it.
func (a *apiServer) nodeZone(name string) string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if n, ok := a.nodes[name]; ok {
		return n.Spec.Zone
	}
	return ""
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
// writers by an unbounded queue.
type podWatcher struct {
	*queue.Queue[PodEvent]

	api    *apiServer
	filter func(PodEvent) bool // predicate watchers only
	names  []string            // name watchers only: its byName keys
}

// watchPods registers a predicate watcher; the pods it accepts are
// replayed first as Added, in name order (a "list+watch" in one call,
// like a k8s informer). filter (nil for everything) runs on every
// event under the store lock. Its events carry the stored pods
// themselves, shared and read-only.
func (a *apiServer) watchPods(filter func(PodEvent) bool) *podWatcher {
	w := &podWatcher{Queue: queue.New[PodEvent](), api: a, filter: filter}
	// Snapshot + register atomically with respect to writers so no
	// event is missed or duplicated.
	a.mu.Lock()
	defer a.mu.Unlock()
	var initial []*Pod
	for _, p := range a.pods {
		if filter == nil || filter(PodEvent{Type: Added, Pod: p}) {
			initial = append(initial, p)
		}
	}
	sort.Slice(initial, func(i, j int) bool { return initial[i].Name < initial[j].Name })
	for _, p := range initial {
		w.Push(PodEvent{Type: Added, Pod: p})
	}
	a.preds[w] = struct{}{}
	return w
}

// watchNames registers a watcher of the named pods only: each that
// exists is replayed first as Added, in name order, and other pods'
// events never reach it, however large the cluster. Every event it
// delivers carries a private copy of the pod.
func (a *apiServer) watchNames(names ...string) *podWatcher {
	names = slices.Clone(names)
	slices.Sort(names)
	names = slices.Compact(names)
	w := &podWatcher{Queue: queue.New[PodEvent](), api: a, names: names}
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, n := range names {
		if p, ok := a.pods[n]; ok {
			w.Push(PodEvent{Type: Added, Pod: p.DeepCopy()})
		}
		a.byName[n] = append(a.byName[n], w)
	}
	return w
}

// broadcast is called with a.mu held so that watcher registration
// (which snapshots under a.mu) can never observe an event twice or
// miss one. ev carries the stored pod. Pushing never blocks on
// consumers.
func (a *apiServer) broadcast(ev PodEvent) {
	for _, w := range a.byName[ev.Pod.Name] {
		w.Push(PodEvent{Type: ev.Type, Pod: ev.Pod.DeepCopy()})
	}
	for w := range a.preds {
		if w.filter == nil || w.filter(ev) {
			w.Push(ev)
		}
	}
}

// Close unregisters the watcher and ends its queue.
func (w *podWatcher) Close() {
	a := w.api
	a.mu.Lock()
	delete(a.preds, w)
	for _, n := range w.names {
		if ws := slices.DeleteFunc(a.byName[n], func(x *podWatcher) bool { return x == w }); len(ws) > 0 {
			a.byName[n] = ws
		} else {
			delete(a.byName, n)
		}
	}
	a.mu.Unlock()
	w.Queue.Close()
}
