package kube

import (
	"slices"
	"sync"
)

// scheduler binds pending pods to nodes. Placement is least-loaded
// first among ready nodes with free capacity that satisfy the pod's
// node selector; ties break by node name for determinism. Pods that
// fit nowhere stay Pending, in the scheduler's pending set, and are
// retried in name order whenever cluster state changes.
type scheduler struct {
	api *apiServer

	mu sync.Mutex
	// assigned tracks the scheduler's own view of per-node commitments
	// so a burst of pending pods doesn't overshoot capacity before the
	// agents update node status.
	assigned map[string]int
	// pending names the pods that fit nowhere at their last attempt;
	// a deleted one leaves at its next retry.
	pending map[string]struct{}

	watcher *podWatcher
	done    chan struct{}
	wg      sync.WaitGroup

	// metrics resolves the cluster's instrument bundle at observe
	// time (nil getter or nil bundle = unobserved).
	metrics func() *clusterMetrics
}

func newScheduler(api *apiServer) *scheduler {
	return &scheduler{api: api, assigned: map[string]int{}, pending: map[string]struct{}{}, done: make(chan struct{})}
}

func (s *scheduler) start() {
	s.watcher = s.api.watchPods(nil)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			select {
			case ev, ok := <-s.watcher.C:
				if !ok {
					return
				}
				s.handle(ev)
			case <-s.done:
				return
			}
		}
	}()
}

func (s *scheduler) stop() {
	close(s.done)
	s.watcher.Close()
	s.wg.Wait()
}

func (s *scheduler) handle(ev PodEvent) {
	switch ev.Type {
	case Added:
		if ev.Pod.Status.NodeName == "" && ev.Pod.Status.Phase == PodPending {
			s.schedule(ev.Pod.Name)
			return
		}
		// Replayed pod that is already bound (scheduler restarted over
		// live state): account for its capacity.
		if ev.Pod.Status.NodeName != "" &&
			ev.Pod.Status.Phase != PodSucceeded && ev.Pod.Status.Phase != PodFailed {
			s.mu.Lock()
			s.assigned[ev.Pod.Status.NodeName]++
			s.mu.Unlock()
		}
	case Deleted:
		if node := ev.Pod.Status.NodeName; node != "" {
			s.release(node)
			// Freed capacity: retry anything still pending.
			s.retryPending()
		}
	case Modified:
		p := ev.Pod
		// An evicted pod comes back unbound and Pending: re-place it.
		if p.Status.NodeName == "" && p.Status.Phase == PodPending {
			s.schedule(p.Name)
			return
		}
		if p.Status.Phase == PodSucceeded || p.Status.Phase == PodFailed {
			// Terminal pods keep their binding record in the API but
			// no longer consume scheduler-tracked capacity.
			if p.Status.NodeName != "" {
				s.release(p.Status.NodeName)
				s.retryPending()
			}
		}
	}
}

// releaseAll clears the scheduler's capacity accounting for a node
// whose pods were evicted (node failure).
func (s *scheduler) releaseAll(node string) {
	s.mu.Lock()
	s.assigned[node] = 0
	s.mu.Unlock()
}

func (s *scheduler) release(node string) {
	s.mu.Lock()
	if s.assigned[node] > 0 {
		s.assigned[node]--
	}
	s.mu.Unlock()
}

// retryPending re-attempts the pending set, in name order.
func (s *scheduler) retryPending() {
	s.mu.Lock()
	names := make([]string, 0, len(s.pending))
	for name := range s.pending {
		names = append(names, name)
	}
	s.mu.Unlock()
	slices.Sort(names)
	for _, name := range names {
		s.schedule(name)
	}
}

// PickNode is the cluster's placement policy as a pure function:
// least-loaded ready node with free capacity that satisfies the
// selector, ties broken by iteration order (callers pass nodes sorted
// by name). assigned maps node name to committed pod count. The bool
// is false when no node fits. Exported so the deterministic replay
// engine places pods with the exact policy the live scheduler uses.
func PickNode(nodes []*Node, selector map[string]string, assigned map[string]int) (string, bool) {
	var best *Node
	bestFree := 0
	for _, n := range nodes {
		if !n.Status.Ready || !selectorMatches(selector, n.Labels) {
			continue
		}
		free := n.Spec.Capacity - assigned[n.Name]
		if free <= 0 {
			continue
		}
		if best == nil || free > bestFree {
			best = n
			bestFree = free
		}
	}
	if best == nil {
		return "", false
	}
	return best.Name, true
}

// PickNodeSpread is the spread placement policy as a pure function:
// among ready nodes with free capacity that satisfy the selector, pick
// the one with the fewest committed pods; ties break by node name, so
// the choice is deterministic regardless of input order. Swarm
// placement uses it to put one generator pod per node before doubling
// up anywhere.
func PickNodeSpread(nodes []*Node, selector map[string]string, assigned map[string]int) (string, bool) {
	var best *Node
	bestCount := 0
	for _, n := range nodes {
		if !n.Status.Ready || !selectorMatches(selector, n.Labels) {
			continue
		}
		if n.Spec.Capacity-assigned[n.Name] <= 0 {
			continue
		}
		count := assigned[n.Name]
		if best == nil || count < bestCount || (count == bestCount && n.Name < best.Name) {
			best = n
			bestCount = count
		}
	}
	if best == nil {
		return "", false
	}
	return best.Name, true
}

// pickFor dispatches on the pod's placement strategy.
func pickFor(pod *Pod, nodes []*Node, assigned map[string]int) (string, bool) {
	if pod.Spec.Strategy == StrategySpread {
		return PickNodeSpread(nodes, pod.Spec.NodeSelector, assigned)
	}
	return PickNode(nodes, pod.Spec.NodeSelector, assigned)
}

// schedule picks a node for the named pod and binds it, or leaves it
// in the pending set.
func (s *scheduler) schedule(name string) {
	pod, err := s.api.getPod(name)
	s.mu.Lock()
	if err != nil || pod.Status.NodeName != "" {
		delete(s.pending, name)
		s.mu.Unlock()
		return
	}
	// Nodes are read under s.mu, so a node change either shows here or
	// its retryPending finds this pod pending.
	target, ok := pickFor(pod, s.api.listNodes(), s.assigned)
	if !ok {
		s.pending[name] = struct{}{}
		s.mu.Unlock()
		return
	}
	delete(s.pending, name)
	s.assigned[target]++
	s.mu.Unlock()

	bound := false
	s.api.updatePod(name, func(p *Pod) bool {
		if p.Status.NodeName != "" {
			return false
		}
		p.Status.NodeName = target
		p.Status.Message = "scheduled to " + target
		bound = true
		return true
	})
	if !bound {
		s.release(target)
		return
	}
	if s.metrics != nil {
		if m := s.metrics(); m != nil && !pod.Status.CreatedAt.IsZero() {
			// Re-schedules after eviction observe again, measured from
			// creation: the pod's cumulative time-to-placement.
			m.scheduling.Observe(s.api.now().Sub(pod.Status.CreatedAt).Seconds())
		}
	}
}

func selectorMatches(selector, labels map[string]string) bool {
	for k, v := range selector {
		if labels[k] != v {
			return false
		}
	}
	return true
}
