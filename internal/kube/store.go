package kube

import (
	"fmt"
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

	watchMu  sync.Mutex
	watchers map[*podWatcher]struct{}
}

func newAPIServer() *apiServer {
	return &apiServer{
		pods:     map[string]*Pod{},
		nodes:    map[string]*Node{},
		watchers: map[*podWatcher]struct{}{},
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
	a.broadcast(PodEvent{Type: Modified, Pod: p})
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
	filter func(PodEvent) bool
}

// watchPods registers a watcher; existing pods are replayed first as
// ADDED events (a "list+watch" in one call, like a k8s informer).
// filter (nil for everything) sees the stored pod, read-only; only an
// event it accepts is copied, so a one-pod watch on a large cluster
// costs one copy, not one per pod.
func (a *apiServer) watchPods(filter func(PodEvent) bool) *podWatcher {
	w := &podWatcher{Queue: queue.New[PodEvent](), api: a, filter: filter}

	// Snapshot + register atomically with respect to writers so no
	// event is missed or duplicated.
	a.mu.Lock()
	var initial []*Pod
	for _, p := range a.pods {
		if filter == nil || filter(PodEvent{Type: Added, Pod: p}) {
			initial = append(initial, p)
		}
	}
	sort.Slice(initial, func(i, j int) bool { return initial[i].Name < initial[j].Name })
	for _, p := range initial {
		w.Push(PodEvent{Type: Added, Pod: p.DeepCopy()})
	}
	a.watchMu.Lock()
	a.watchers[w] = struct{}{}
	a.watchMu.Unlock()
	a.mu.Unlock()
	return w
}

// broadcast is called with a.mu held so that watcher registration
// (which snapshots under a.mu) can never observe an event twice or
// miss one. ev carries the stored pod; each accepting watcher gets its
// own copy. Pushing never blocks on consumers.
func (a *apiServer) broadcast(ev PodEvent) {
	a.watchMu.Lock()
	defer a.watchMu.Unlock()
	for w := range a.watchers {
		if w.filter != nil && !w.filter(ev) {
			continue
		}
		w.Push(PodEvent{Type: ev.Type, Pod: ev.Pod.DeepCopy()})
	}
}

// Close unregisters the watcher and ends its queue.
func (w *podWatcher) Close() {
	w.api.watchMu.Lock()
	delete(w.api.watchers, w)
	w.api.watchMu.Unlock()
	w.Queue.Close()
}
