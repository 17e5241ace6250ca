// Package kube is Digibox's container-orchestration substrate: an
// in-process substitute for the Kubernetes + Docker + dSpace stack the
// paper deploys on (§4).
//
// It reproduces the control-plane shape Digibox relies on — an API
// server holding versioned objects with watch streams, nodes with pod
// capacity, a scheduler binding pods to nodes, and per-node agents
// (kubelets) that run pod workloads and enforce restart policy — while
// running each "container" as a goroutine. Multi-machine deployments
// are modelled as multiple nodes in zones with configurable inter-zone
// network delay, which is how the paper's 2×EC2 deployment point is
// simulated.
package kube

import (
	"context"
	"fmt"
	"time"
)

// PodPhase is the lifecycle phase of a pod.
type PodPhase string

const (
	PodPending   PodPhase = "Pending"
	PodRunning   PodPhase = "Running"
	PodSucceeded PodPhase = "Succeeded"
	PodFailed    PodPhase = "Failed"
)

// RestartPolicy controls what the node agent does when a pod's
// workload returns.
type RestartPolicy string

const (
	RestartAlways    RestartPolicy = "Always"
	RestartNever     RestartPolicy = "Never"
	RestartOnFailure RestartPolicy = "OnFailure"
)

// Pod is the unit of scheduling: one digi (mock or scene controller)
// microservice.
type Pod struct {
	Name            string
	ResourceVersion uint64
	Labels          map[string]string
	Spec            PodSpec
	Status          PodStatus
}

// PodSpec declares what to run and where it may run.
type PodSpec struct {
	// Image names a workload factory in the cluster's image registry
	// (the stand-in for a container image reference).
	Image string
	// Env is passed to the workload factory.
	Env map[string]any
	// NodeSelector, when non-empty, restricts scheduling to nodes
	// whose labels include every entry.
	NodeSelector  map[string]string
	RestartPolicy RestartPolicy
	// Strategy selects the placement policy: "" (default) is
	// most-free-capacity (PickNode), StrategySpread is least-loaded by
	// committed pod count (PickNodeSpread) — what swarm uses to fan
	// its generator pods across every node.
	Strategy string
}

// StrategySpread selects PickNodeSpread placement: the ready node with
// the fewest committed pods, ties broken by name.
const StrategySpread = "spread"

// PodStatus is maintained by the scheduler and node agents.
type PodStatus struct {
	Phase    PodPhase
	NodeName string // bound node, "" while pending
	Restarts int
	Message  string // human-readable reason for the current phase
	// CreatedAt is stamped by the API server on submission; the gap to
	// node binding is the scheduling-latency metric.
	CreatedAt time.Time
	StartAt   time.Time
}

// DeepCopy returns an independent copy of the pod.
func (p *Pod) DeepCopy() *Pod {
	out := *p
	out.Labels = copyStringMap(p.Labels)
	out.Spec.Env = copyAnyMap(p.Spec.Env)
	out.Spec.NodeSelector = copyStringMap(p.Spec.NodeSelector)
	return &out
}

// Node is a simulated machine with bounded pod capacity.
type Node struct {
	Name            string
	ResourceVersion uint64
	Labels          map[string]string
	Spec            NodeSpec
	Status          NodeStatus
}

// NodeSpec declares capacity and placement attributes.
type NodeSpec struct {
	// Capacity is the maximum number of pods the node can run.
	Capacity int
	// Zone groups nodes for network-delay simulation; requests that
	// cross zones incur the cluster's inter-zone delay.
	Zone string
}

// NodeStatus is maintained by the node agent.
type NodeStatus struct {
	Ready   bool
	Running int // pods currently running
}

// DeepCopy returns an independent copy of the node.
func (n *Node) DeepCopy() *Node {
	out := *n
	out.Labels = copyStringMap(n.Labels)
	return &out
}

func copyStringMap(m map[string]string) map[string]string {
	if m == nil {
		return nil
	}
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func copyAnyMap(m map[string]any) map[string]any {
	if m == nil {
		return nil
	}
	out := make(map[string]any, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Workload is the running body of a pod: Run blocks until the workload
// finishes or ctx is cancelled. Returning nil means Succeeded;
// returning an error means Failed (and triggers restart policy).
type Workload interface {
	Run(ctx context.Context) error
}

// WorkloadFunc adapts a function to the Workload interface.
type WorkloadFunc func(ctx context.Context) error

// Run implements Workload.
func (f WorkloadFunc) Run(ctx context.Context) error { return f(ctx) }

// ImageFactory constructs a pod's workload from its Env. It is the
// stand-in for pulling and instantiating a container image.
type ImageFactory func(env map[string]any) (Workload, error)

// EventType tags watch events.
type EventType string

const (
	Added    EventType = "ADDED"
	Modified EventType = "MODIFIED"
	Deleted  EventType = "DELETED"
)

// PodEvent is one pod watch event. Its Pod is the receiver's own copy
// when it comes from Cluster.WatchPods; the package's own watchers
// (scheduler, node agents, BindBus) get the stored pod itself, shared
// and read-only — a stored pod never changes once published.
type PodEvent struct {
	Type EventType
	Pod  *Pod
}

// ErrNotFound is returned for lookups of missing objects.
type ErrNotFound struct{ Kind, Name string }

func (e ErrNotFound) Error() string {
	return fmt.Sprintf("kube: %s %q not found", e.Kind, e.Name)
}
