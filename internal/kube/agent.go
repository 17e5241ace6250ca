package kube

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
)

// nodeAgent is the per-node "kubelet": it watches pods bound to its
// node, instantiates their workloads from the image registry, runs
// them as goroutines, reports phase transitions, and enforces restart
// policy with exponential backoff.
type nodeAgent struct {
	cluster *Cluster
	name    string

	mu      sync.Mutex
	running map[string]*podRuntime
	// stopping blocks new launches once stop() has begun cancelling;
	// without it a watcher event in flight could insert a runtime
	// after the cancel sweep and leave its workload uncancellable.
	stopping bool

	watcher  *podWatcher
	done     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

type podRuntime struct {
	cancel   context.CancelFunc
	finished chan struct{}
	// attemptCancel cancels only the current run attempt (chaos
	// pod-crash); the restart loop then starts the next attempt.
	attemptCancel context.CancelFunc
	// pendingCrash records a crash requested while no attempt was
	// live — the pod is reported Running before the first attempt
	// registers, and between restarts during backoff. The loop
	// honours it as soon as the next attempt starts.
	pendingCrash bool
	// generationStopped guards against restarting a pod whose runtime
	// was explicitly stopped (deletion or node shutdown).
	stopped bool
}

func newNodeAgent(c *Cluster, name string) *nodeAgent {
	return &nodeAgent{
		cluster: c,
		name:    name,
		running: map[string]*podRuntime{},
		done:    make(chan struct{}),
	}
}

func (na *nodeAgent) start() {
	name := na.name
	na.watcher = na.cluster.api.watchPods(func(ev PodEvent) bool {
		return ev.Pod.Status.NodeName == name || ev.Type == Deleted
	})
	na.wg.Add(1)
	go func() {
		defer na.wg.Done()
		for {
			select {
			case ev, ok := <-na.watcher.C:
				if !ok {
					return
				}
				na.handle(ev)
			case <-na.done:
				return
			}
		}
	}()
}

func (na *nodeAgent) stop() {
	na.stopOnce.Do(func() {
		close(na.done)
		na.watcher.Close()
		na.mu.Lock()
		na.stopping = true
		for _, rt := range na.running {
			rt.stopped = true
			rt.cancel()
		}
		na.mu.Unlock()
		na.wg.Wait()
	})
}

func (na *nodeAgent) handle(ev PodEvent) {
	switch ev.Type {
	case Added, Modified:
		if ev.Pod.Status.NodeName != na.name {
			return
		}
		if ev.Pod.Status.Phase == PodPending {
			na.launch(ev.Pod)
		}
	case Deleted:
		na.teardown(ev.Pod.Name)
	}
}

func (na *nodeAgent) teardown(podName string) {
	na.mu.Lock()
	rt, ok := na.running[podName]
	if ok {
		rt.stopped = true
		delete(na.running, podName)
	}
	na.mu.Unlock()
	if ok {
		rt.cancel()
	}
}

// launch starts a pod workload; idempotent per pod name.
func (na *nodeAgent) launch(pod *Pod) {
	na.mu.Lock()
	if _, exists := na.running[pod.Name]; exists || na.stopping {
		na.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	rt := &podRuntime{cancel: cancel, finished: make(chan struct{})}
	na.running[pod.Name] = rt
	na.mu.Unlock()

	factory, err := na.cluster.lookupImage(pod.Spec.Image)
	if err != nil {
		na.fail(pod.Name, err.Error())
		na.teardown(pod.Name)
		return
	}

	na.cluster.api.updatePod(pod.Name, func(p *Pod) bool {
		p.Status.Phase = PodRunning
		p.Status.StartAt = na.cluster.clock.Now()
		p.Status.Message = "running on " + na.name
		return true
	})
	na.adjustRunning(+1)

	// The restart loop lives as long as the pod: it keeps what it
	// needs, not the event's copy of the whole pod.
	name, image, policy, label := pod.Name, pod.Spec.Image, pod.Spec.RestartPolicy, digiLabel(pod)
	env := envForPod(pod)

	na.wg.Add(1)
	go func() {
		defer na.wg.Done()
		defer close(rt.finished)
		restarts := 0
		for {
			workload, err := factory(copyAnyMap(env))
			if err != nil {
				na.adjustRunning(-1)
				na.fail(name, fmt.Sprintf("image %s: %v", image, err))
				return
			}
			// Each attempt gets its own derived context so an injected
			// crash (crashPod) kills only this attempt; the pod context
			// stays live and the restart policy decides what follows.
			attemptCtx, attemptCancel := context.WithCancel(ctx)
			na.mu.Lock()
			rt.attemptCancel = attemptCancel
			if rt.pendingCrash {
				rt.pendingCrash = false
				attemptCancel()
			}
			na.mu.Unlock()
			runErr := runGuarded(attemptCtx, workload)

			na.mu.Lock()
			rt.attemptCancel = nil
			stopped := rt.stopped
			na.mu.Unlock()
			if stopped || ctx.Err() != nil {
				attemptCancel()
				na.adjustRunning(-1)
				return
			}
			if runErr == nil && attemptCtx.Err() != nil {
				// The attempt was cancelled but the pod was not stopped:
				// an injected crash. Surface it as a failure so
				// RestartOnFailure pods restart too.
				runErr = fmt.Errorf("crashed: injected fault")
			}
			attemptCancel()

			shouldRestart := policy == RestartAlways || (policy == RestartOnFailure && runErr != nil)
			if !shouldRestart {
				na.adjustRunning(-1)
				if runErr != nil {
					na.fail(name, runErr.Error())
				} else {
					na.cluster.api.updatePod(name, func(p *Pod) bool {
						p.Status.Phase = PodSucceeded
						p.Status.Message = "completed"
						return true
					})
				}
				return
			}
			restarts++
			if m := na.cluster.getMetrics(); m != nil {
				m.restarts.With(label).Inc()
			}
			na.cluster.api.updatePod(name, func(p *Pod) bool {
				p.Status.Restarts = restarts
				if runErr != nil {
					p.Status.Message = fmt.Sprintf("restarting after error: %v", runErr)
				} else {
					p.Status.Message = "restarting"
				}
				return true
			})
			// Exponential backoff capped at 2s keeps crash loops cheap
			// in simulation while preserving the k8s behaviour shape.
			backoff := time.Duration(1<<uint(min(restarts, 5))) * 25 * time.Millisecond
			clk := na.cluster.clock
			if clock.SleepUntil(ctx, clk, clk.Now().Add(backoff)) != nil {
				na.adjustRunning(-1)
				return
			}
		}
	}()
}

// crashPod cancels the current run attempt of a pod on this node,
// reporting whether the pod was running here.
func (na *nodeAgent) crashPod(podName string) bool {
	na.mu.Lock()
	defer na.mu.Unlock()
	rt, ok := na.running[podName]
	if !ok || rt.stopped {
		return false
	}
	if rt.attemptCancel != nil {
		// Cancelling under the mutex pairs with the loop's
		// register/deregister critical sections, so the cancel always
		// hits the attempt it was fetched for.
		rt.attemptCancel()
		return true
	}
	// The pod is live but between attempts (pre-first-register or
	// restart backoff): defer the crash to the next attempt.
	rt.pendingCrash = true
	return true
}

// runGuarded runs a workload, converting panics into errors so one
// faulty digi cannot take down the node agent.
func runGuarded(ctx context.Context, w Workload) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("workload panic: %v", r)
		}
	}()
	return w.Run(ctx)
}

func (na *nodeAgent) fail(podName, msg string) {
	na.cluster.api.updatePod(podName, func(p *Pod) bool {
		p.Status.Phase = PodFailed
		p.Status.Message = msg
		return true
	})
}

func (na *nodeAgent) adjustRunning(delta int) {
	na.cluster.api.updateNode(na.name, func(n *Node) {
		n.Status.Running += delta
		if n.Status.Running < 0 {
			n.Status.Running = 0
		}
	})
}

func envForPod(pod *Pod) map[string]any {
	env := copyAnyMap(pod.Spec.Env)
	if env == nil {
		env = map[string]any{}
	}
	env["POD_NAME"] = pod.Name
	env["NODE_NAME"] = pod.Status.NodeName
	return env
}
