package kube

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
)

// Cluster is the public face of the orchestrator: an API server, a
// scheduler, and one node agent per node, all in-process.
//
//	c := kube.NewCluster()
//	c.RegisterImage("digi/lamp", lampFactory)
//	c.AddNode("laptop", 100, "local")
//	c.Start()
//	defer c.Stop()
//	c.CreatePod(&kube.Pod{Name: "l1", Spec: kube.PodSpec{Image: "digi/lamp"}})
type Cluster struct {
	api   *apiServer
	clock clock.Clock

	mu       sync.Mutex
	images   map[string]ImageFactory
	agents   map[string]*nodeAgent
	zones    map[zonePair]time.Duration
	sched    *scheduler
	metrics  *clusterMetrics // nil until BindMetrics
	busWatch *podWatcher     // nil until BindBus; closed by Stop
	started  bool
	stopped  bool
}

type zonePair struct{ a, b string }

// NewCluster returns an idle cluster with no nodes.
func NewCluster() *Cluster {
	c := &Cluster{
		api:    newAPIServer(),
		clock:  clock.System,
		images: map[string]ImageFactory{},
		agents: map[string]*nodeAgent{},
		zones:  map[zonePair]time.Duration{},
	}
	c.api.now = c.clock.Now
	return c
}

// SetClock replaces the cluster's time source (pod timestamps, crash
// backoff, wait polling). Call before Start.
func (c *Cluster) SetClock(clk clock.Clock) {
	c.clock = clock.Or(clk)
	c.api.now = c.clock.Now
}

// RegisterImage installs a workload factory under an image name.
// Registering the same name twice replaces the factory.
func (c *Cluster) RegisterImage(name string, f ImageFactory) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.images[name] = f
}

func (c *Cluster) lookupImage(name string) (ImageFactory, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.images[name]
	if !ok {
		return nil, fmt.Errorf("kube: image %q not found", name)
	}
	return f, nil
}

// AddNode registers a ready node. Capacity is the maximum number of
// concurrently running pods; zone groups nodes for network-delay
// simulation. Nodes may be added before or after Start.
func (c *Cluster) AddNode(name string, capacity int, zone string) error {
	if capacity <= 0 {
		return fmt.Errorf("kube: node capacity must be positive")
	}
	node := &Node{
		Name:   name,
		Labels: map[string]string{"zone": zone},
		Spec:   NodeSpec{Capacity: capacity, Zone: zone},
		Status: NodeStatus{Ready: true},
	}
	if err := c.api.registerNode(node); err != nil {
		return err
	}
	agent := newNodeAgent(c, name)
	c.mu.Lock()
	c.agents[name] = agent
	started := c.started
	c.mu.Unlock()
	if started {
		agent.start()
		// New capacity may unblock pending pods.
		c.sched.retryPending()
	}
	return nil
}

// SetZoneDelay declares the simulated one-way network delay between
// two zones (symmetric). Same-zone delay defaults to zero.
func (c *Cluster) SetZoneDelay(zoneA, zoneB string, d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.zones[zonePair{zoneA, zoneB}] = d
	c.zones[zonePair{zoneB, zoneA}] = d
}

// ZoneDelay returns the simulated one-way delay between two zones.
func (c *Cluster) ZoneDelay(zoneA, zoneB string) time.Duration {
	if zoneA == zoneB {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.zones[zonePair{zoneA, zoneB}]
}

// NodeZone returns the zone of a node ("" if unknown).
func (c *Cluster) NodeZone(nodeName string) string {
	return c.api.nodeZone(nodeName)
}

// Start launches the scheduler and all node agents.
func (c *Cluster) Start() {
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return
	}
	c.started = true
	c.sched = newScheduler(c.api)
	c.sched.metrics = c.getMetrics
	agents := make([]*nodeAgent, 0, len(c.agents))
	for _, a := range c.agents {
		agents = append(agents, a)
	}
	c.mu.Unlock()
	c.sched.start()
	for _, a := range agents {
		a.start()
	}
}

// Stop tears down agents (cancelling all workloads) and the scheduler.
func (c *Cluster) Stop() {
	c.mu.Lock()
	if !c.started || c.stopped {
		c.mu.Unlock()
		return
	}
	c.stopped = true
	agents := make([]*nodeAgent, 0, len(c.agents))
	for _, a := range c.agents {
		agents = append(agents, a)
	}
	sched := c.sched
	busWatch := c.busWatch
	c.mu.Unlock()
	for _, a := range agents {
		a.stop()
	}
	sched.stop()
	if busWatch != nil {
		busWatch.Close()
	}
}

// SetNodeReady marks a node ready or not-ready (fault injection, the
// "faults/failures" axis of the paper's §6). Taking a node down stops
// its agent, cancelling every workload on it; the affected pods are
// returned to Pending with their binding cleared so the scheduler
// re-places them on surviving nodes. Bringing the node back up
// restarts its agent and makes its capacity schedulable again.
func (c *Cluster) SetNodeReady(name string, ready bool) error {
	node, err := c.api.getNode(name)
	if err != nil {
		return err
	}
	if node.Status.Ready == ready {
		return nil
	}
	c.mu.Lock()
	agent := c.agents[name]
	started := c.started
	c.mu.Unlock()

	if !ready {
		// Stop the agent first so its workloads cancel and it stops
		// reacting to pod events.
		if agent != nil && started {
			agent.stop()
		}
		c.api.updateNode(name, func(n *Node) {
			n.Status.Ready = false
			n.Status.Running = 0
		})
		// Evict: return this node's pods to the scheduler.
		m := c.getMetrics()
		for _, p := range c.api.listPods() {
			if p.Status.NodeName != name {
				continue
			}
			c.api.updatePod(p.Name, func(pod *Pod) bool {
				pod.Status.NodeName = ""
				pod.Status.Phase = PodPending
				pod.Status.Message = "evicted: node " + name + " down"
				return true
			})
			if m != nil {
				m.evictions.Inc()
			}
		}
		if c.sched != nil {
			c.sched.releaseAll(name)
			c.sched.retryPending()
		}
		return nil
	}
	c.api.updateNode(name, func(n *Node) {
		n.Status.Ready = true
	})
	fresh := newNodeAgent(c, name)
	c.mu.Lock()
	c.agents[name] = fresh
	c.mu.Unlock()
	if started {
		fresh.start()
		if c.sched != nil {
			c.sched.retryPending()
		}
	}
	return nil
}

// KillNode takes a node down (chaos verb): its agent stops, its pods
// are evicted back to Pending, and the scheduler re-places them on
// surviving nodes.
func (c *Cluster) KillNode(name string) error {
	return c.SetNodeReady(name, false)
}

// ReviveNode brings a killed node back; its capacity becomes
// schedulable again.
func (c *Cluster) ReviveNode(name string) error {
	return c.SetNodeReady(name, true)
}

// CrashPod kills the named pod's current run attempt in place (chaos
// verb). Unlike DeletePod the pod object survives; the node agent's
// restart policy decides whether the workload comes back (digi pods
// run with RestartPolicy Always). The pod's restart counter records
// the crash.
func (c *Cluster) CrashPod(name string) error {
	p, err := c.api.getPod(name)
	if err != nil {
		return err
	}
	if p.Status.Phase != PodRunning || p.Status.NodeName == "" {
		return fmt.Errorf("kube: pod %q is not running", name)
	}
	c.mu.Lock()
	agent := c.agents[p.Status.NodeName]
	c.mu.Unlock()
	if agent == nil || !agent.crashPod(name) {
		return fmt.Errorf("kube: pod %q has no live attempt on node %q", name, p.Status.NodeName)
	}
	return nil
}

// CreatePod submits a pod. The scheduler binds it asynchronously;
// WatchPods follows it from there.
func (c *Cluster) CreatePod(p *Pod) error {
	if p.Name == "" {
		return fmt.Errorf("kube: pod name required")
	}
	if p.Spec.Image == "" {
		return fmt.Errorf("kube: pod image required")
	}
	if err := c.api.createPod(p); err != nil {
		return err
	}
	if m := c.getMetrics(); m != nil {
		m.created.Inc()
	}
	return nil
}

// DeletePod removes a pod; its workload context is cancelled.
func (c *Cluster) DeletePod(name string) error {
	return c.api.deletePod(name)
}

// GetPod returns a deep copy of the named pod.
func (c *Cluster) GetPod(name string) (*Pod, error) {
	return c.api.getPod(name)
}

// ListPods returns deep copies of all pods, sorted by name.
func (c *Cluster) ListPods() []*Pod {
	return c.api.listPods()
}

// WatchPods streams the named pods' events in commit order: each one
// that exists first, as Added and in name order, then every change,
// until stop is called. Each event carries the receiver's own copy of
// the pod; other pods' events cost the watch nothing, however large
// the cluster.
func (c *Cluster) WatchPods(names ...string) (events <-chan PodEvent, stop func()) {
	w := c.api.watchNames(names...)
	return w.C, w.Close
}

// waitGrace is WaitAllRunning's wall-clock grace (see clock.Deadline):
// what the host may take to run the scheduler → agent goroutine chain
// after the scenario timeout has expired.
const waitGrace = 2 * time.Second

// WaitAllRunning blocks until every pod currently in the store is
// Running (or terminal-failure, which is reported as an error).
//
//dbox:allow deadcode -- digi's tests wait for placement with it
func (c *Cluster) WaitAllRunning(timeout time.Duration) error {
	d := clock.NewDeadline(c.clock, timeout, waitGrace)
	for {
		pending := 0
		for _, p := range c.api.listPods() {
			switch p.Status.Phase {
			case PodFailed:
				return fmt.Errorf("kube: pod %q failed: %s", p.Name, p.Status.Message)
			case PodRunning:
			default:
				pending++
			}
		}
		if pending == 0 {
			return nil
		}
		if !d.Poll() {
			return fmt.Errorf("kube: timeout with %d pods not running", pending)
		}
	}
}
