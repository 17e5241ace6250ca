package kube

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// blockingImage runs until cancelled, recording starts/stops.
func blockingImage(started, stopped *int32) ImageFactory {
	return func(env map[string]any) (Workload, error) {
		return WorkloadFunc(func(ctx context.Context) error {
			if started != nil {
				atomic.AddInt32(started, 1)
			}
			<-ctx.Done()
			if stopped != nil {
				atomic.AddInt32(stopped, 1)
			}
			return nil
		}), nil
	}
}

func testCluster(t *testing.T, nodes ...string) *Cluster {
	t.Helper()
	c := NewCluster()
	for _, n := range nodes {
		if err := c.AddNode(n, 100, "local"); err != nil {
			t.Fatal(err)
		}
	}
	c.Start()
	t.Cleanup(c.Stop)
	return c
}

// ClusterStats summarises cluster state.
type ClusterStats struct {
	Nodes       int
	PodsRunning int
	PodsPending int
	PodsFailed  int
}

// Stats returns a snapshot of cluster state.
func (c *Cluster) Stats() ClusterStats {
	var st ClusterStats
	st.Nodes = len(c.api.listNodes())
	for _, p := range c.api.listPods() {
		switch p.Status.Phase {
		case PodRunning:
			st.PodsRunning++
		case PodPending:
			st.PodsPending++
		case PodFailed:
			st.PodsFailed++
		}
	}
	return st
}

func TestPodLifecycle(t *testing.T) {
	c := testCluster(t, "n1")
	var started, stopped int32
	c.RegisterImage("digi/block", blockingImage(&started, &stopped))

	if err := c.CreatePod(&Pod{Name: "p1", Spec: PodSpec{Image: "digi/block"}}); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitPodPhase("p1", PodRunning, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	p, err := c.GetPod("p1")
	if err != nil {
		t.Fatal(err)
	}
	if p.Status.NodeName != "n1" || p.Status.Phase != PodRunning {
		t.Errorf("pod status = %+v", p.Status)
	}
	if err := c.DeletePod("p1"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return atomic.LoadInt32(&stopped) == 1 }, "workload cancelled")
	if _, err := c.GetPod("p1"); err == nil {
		t.Error("pod should be gone")
	}
	var nf ErrNotFound
	if !errors.As(err, &nf) {
		_, err := c.GetPod("p1")
		if !errors.As(err, &nf) {
			t.Errorf("want ErrNotFound, got %v", err)
		}
	}
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// holds asserts cond stays true for the whole window, failing at the
// first observed violation instead of sleeping blind and sampling once.
func holds(t *testing.T, window time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(window)
	for time.Now().Before(deadline) {
		if !cond() {
			t.Fatalf("%s violated", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestSchedulerSpreadsByLeastLoaded(t *testing.T) {
	c := NewCluster()
	c.AddNode("n1", 100, "local")
	c.AddNode("n2", 100, "local")
	c.Start()
	t.Cleanup(c.Stop)
	c.RegisterImage("digi/block", blockingImage(nil, nil))

	const n = 20
	for i := 0; i < n; i++ {
		if err := c.CreatePod(&Pod{Name: fmt.Sprintf("p%02d", i), Spec: PodSpec{Image: "digi/block"}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitAllRunning(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, p := range c.ListPods() {
		counts[p.Status.NodeName]++
	}
	if counts["n1"] != n/2 || counts["n2"] != n/2 {
		t.Errorf("placement = %v, want even split", counts)
	}
}

func TestSchedulerRespectsCapacity(t *testing.T) {
	c := NewCluster()
	c.AddNode("tiny", 2, "local")
	c.Start()
	t.Cleanup(c.Stop)
	c.RegisterImage("digi/block", blockingImage(nil, nil))

	for i := 0; i < 4; i++ {
		c.CreatePod(&Pod{Name: fmt.Sprintf("p%d", i), Spec: PodSpec{Image: "digi/block"}})
	}
	waitFor(t, func() bool { return c.Stats().PodsRunning == 2 }, "2 running")
	holds(t, 50*time.Millisecond, func() bool {
		st := c.Stats()
		return st.PodsRunning == 2 && st.PodsPending == 2
	}, "capacity cap (2 running / 2 pending)")
	// Freeing capacity lets a pending pod in.
	var victim string
	for _, p := range c.ListPods() {
		if p.Status.Phase == PodRunning {
			victim = p.Name
			break
		}
	}
	c.DeletePod(victim)
	waitFor(t, func() bool {
		st := c.Stats()
		return st.PodsRunning == 2 && st.PodsPending == 1
	}, "pending pod scheduled after deletion")
}

func TestSchedulerNodeSelector(t *testing.T) {
	c := NewCluster()
	c.AddNode("edge-1", 10, "edge")
	c.AddNode("cloud-1", 10, "cloud")
	c.Start()
	t.Cleanup(c.Stop)
	c.RegisterImage("digi/block", blockingImage(nil, nil))

	c.CreatePod(&Pod{Name: "pinned", Spec: PodSpec{
		Image:        "digi/block",
		NodeSelector: map[string]string{"zone": "cloud"},
	}})
	if err := c.WaitPodPhase("pinned", PodRunning, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	p, _ := c.GetPod("pinned")
	if p.Status.NodeName != "cloud-1" {
		t.Errorf("scheduled to %q, want cloud-1", p.Status.NodeName)
	}
}

func TestPodPendingWithNoFit(t *testing.T) {
	c := testCluster(t, "n1")
	c.RegisterImage("digi/block", blockingImage(nil, nil))
	c.CreatePod(&Pod{Name: "nofit", Spec: PodSpec{
		Image:        "digi/block",
		NodeSelector: map[string]string{"zone": "mars"},
	}})
	holds(t, 50*time.Millisecond, func() bool {
		p, err := c.GetPod("nofit")
		return err == nil && p.Status.Phase == PodPending && p.Status.NodeName == ""
	}, "pod stays pending and unbound with no matching node")
	// Adding a matching node unblocks it.
	if err := c.AddNode("mars-1", 5, "mars"); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitPodPhase("nofit", PodRunning, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestRestartPolicyAlways(t *testing.T) {
	c := testCluster(t, "n1")
	var runs int32
	c.RegisterImage("digi/flaky", func(env map[string]any) (Workload, error) {
		return WorkloadFunc(func(ctx context.Context) error {
			atomic.AddInt32(&runs, 1)
			return errors.New("crash")
		}), nil
	})
	c.CreatePod(&Pod{Name: "crashy", Spec: PodSpec{Image: "digi/flaky", RestartPolicy: RestartAlways}})
	waitFor(t, func() bool { return atomic.LoadInt32(&runs) >= 3 }, "3 restarts")
	p, _ := c.GetPod("crashy")
	if p.Status.Restarts < 2 {
		t.Errorf("restarts = %d", p.Status.Restarts)
	}
}

func TestRestartPolicyNever(t *testing.T) {
	c := testCluster(t, "n1")
	var runs int32
	c.RegisterImage("digi/oneshot", func(env map[string]any) (Workload, error) {
		return WorkloadFunc(func(ctx context.Context) error {
			atomic.AddInt32(&runs, 1)
			return nil
		}), nil
	})
	c.CreatePod(&Pod{Name: "once", Spec: PodSpec{Image: "digi/oneshot", RestartPolicy: RestartNever}})
	if err := c.WaitPodPhase("once", PodSucceeded, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	holds(t, 50*time.Millisecond, func() bool {
		return atomic.LoadInt32(&runs) == 1
	}, "RestartNever pod not restarted")
}

func TestRestartPolicyOnFailure(t *testing.T) {
	c := testCluster(t, "n1")
	var runs int32
	c.RegisterImage("digi/failtwice", func(env map[string]any) (Workload, error) {
		return WorkloadFunc(func(ctx context.Context) error {
			if atomic.AddInt32(&runs, 1) < 3 {
				return errors.New("not yet")
			}
			return nil
		}), nil
	})
	c.CreatePod(&Pod{Name: "ff", Spec: PodSpec{Image: "digi/failtwice", RestartPolicy: RestartOnFailure}})
	if err := c.WaitPodPhase("ff", PodSucceeded, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if n := atomic.LoadInt32(&runs); n != 3 {
		t.Errorf("runs = %d, want 3", n)
	}
}

func TestWorkloadPanicIsContained(t *testing.T) {
	c := testCluster(t, "n1")
	c.RegisterImage("digi/panics", func(env map[string]any) (Workload, error) {
		return WorkloadFunc(func(ctx context.Context) error {
			panic("boom")
		}), nil
	})
	c.CreatePod(&Pod{Name: "pp", Spec: PodSpec{Image: "digi/panics", RestartPolicy: RestartNever}})
	if err := c.WaitPodPhase("pp", PodFailed, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	p, _ := c.GetPod("pp")
	if p.Status.Message == "" {
		t.Error("failure message empty")
	}
}

func TestMissingImageFailsPod(t *testing.T) {
	c := testCluster(t, "n1")
	c.CreatePod(&Pod{Name: "ghost", Spec: PodSpec{Image: "digi/nonexistent"}})
	if err := c.WaitPodPhase("ghost", PodFailed, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestEnvPassedToWorkload(t *testing.T) {
	c := testCluster(t, "n1")
	got := make(chan map[string]any, 1)
	c.RegisterImage("digi/env", func(env map[string]any) (Workload, error) {
		got <- env
		return blockingWorkload(), nil
	})
	c.CreatePod(&Pod{Name: "envpod", Spec: PodSpec{
		Image: "digi/env",
		Env:   map[string]any{"model": "Lamp"},
	}})
	select {
	case env := <-got:
		if env["model"] != "Lamp" || env["POD_NAME"] != "envpod" || env["NODE_NAME"] != "n1" {
			t.Errorf("env = %v", env)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("workload never created")
	}
}

func blockingWorkload() Workload {
	return WorkloadFunc(func(ctx context.Context) error {
		<-ctx.Done()
		return nil
	})
}

func TestZoneDelays(t *testing.T) {
	c := NewCluster()
	c.AddNode("laptop", 10, "local")
	c.AddNode("ec2-a", 10, "us-east")
	c.AddNode("ec2-b", 10, "us-east")
	c.SetZoneDelay("local", "us-east", 30*time.Millisecond)
	if d := c.ZoneDelay(c.NodeZone("laptop"), c.NodeZone("ec2-a")); d != 30*time.Millisecond {
		t.Errorf("cross-zone delay = %v", d)
	}
	if d := c.ZoneDelay(c.NodeZone("ec2-a"), c.NodeZone("ec2-b")); d != 0 {
		t.Errorf("same-zone delay = %v", d)
	}
	if d := c.ZoneDelay(c.NodeZone("laptop"), c.NodeZone("laptop")); d != 0 {
		t.Errorf("self delay = %v", d)
	}
}

// NodeZone runs on every gateway-delayed REST request: it reads the
// zone in place and copies no node.
func TestNodeZoneCopiesNothing(t *testing.T) {
	c := NewCluster()
	c.AddNode("laptop", 10, "local")
	if z := c.NodeZone("nowhere"); z != "" {
		t.Errorf("unknown node zone = %q", z)
	}
	if n := testing.AllocsPerRun(100, func() { c.NodeZone("laptop") }); n != 0 {
		t.Errorf("NodeZone allocates %v times per call", n)
	}
}

func TestWatchReplaysExistingPods(t *testing.T) {
	c := testCluster(t, "n1")
	c.RegisterImage("digi/block", blockingImage(nil, nil))
	c.CreatePod(&Pod{Name: "pre", Spec: PodSpec{Image: "digi/block"}})
	c.WaitPodPhase("pre", PodRunning, 5*time.Second)

	w := c.api.watchPods(nil)
	defer w.Close()
	select {
	case ev := <-w.C:
		if ev.Type != Added || ev.Pod.Name != "pre" {
			t.Errorf("first event = %+v", ev)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no replayed event")
	}
}

// The exported watch hands each receiver its own copy of the pod.
func TestWatchEventsAreCopies(t *testing.T) {
	c := testCluster(t, "n1")
	c.RegisterImage("digi/block", blockingImage(nil, nil))
	events, stop := c.WatchPods("p")
	defer stop()
	c.CreatePod(&Pod{Name: "p", Spec: PodSpec{Image: "digi/block", Env: map[string]any{"k": "v"}}})
	ev := <-events
	ev.Pod.Spec.Env["k"] = "mutated"
	p, _ := c.GetPod("p")
	if p.Spec.Env["k"] != "v" {
		t.Error("watch event shares memory with store")
	}
}

func TestCreatePodValidation(t *testing.T) {
	c := testCluster(t, "n1")
	if err := c.CreatePod(&Pod{Name: "", Spec: PodSpec{Image: "x"}}); err == nil {
		t.Error("empty name accepted")
	}
	if err := c.CreatePod(&Pod{Name: "x"}); err == nil {
		t.Error("empty image accepted")
	}
	c.RegisterImage("digi/block", blockingImage(nil, nil))
	if err := c.CreatePod(&Pod{Name: "dup", Spec: PodSpec{Image: "digi/block"}}); err != nil {
		t.Fatal(err)
	}
	if err := c.CreatePod(&Pod{Name: "dup", Spec: PodSpec{Image: "digi/block"}}); err == nil {
		t.Error("duplicate pod accepted")
	}
	if err := c.AddNode("n1", 1, "local"); err == nil {
		t.Error("duplicate node accepted")
	}
	if err := c.AddNode("n2", 0, "local"); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestClusterStopCancelsWorkloads(t *testing.T) {
	c := NewCluster()
	c.AddNode("n1", 50, "local")
	c.Start()
	var started, stopped int32
	c.RegisterImage("digi/block", blockingImage(&started, &stopped))
	const n = 10
	for i := 0; i < n; i++ {
		c.CreatePod(&Pod{Name: fmt.Sprintf("p%d", i), Spec: PodSpec{Image: "digi/block"}})
	}
	if err := c.WaitAllRunning(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Stop()
	if got := atomic.LoadInt32(&stopped); got != n {
		t.Errorf("stopped = %d, want %d", got, n)
	}
	c.Stop() // idempotent
}

func TestConcurrentPodChurn(t *testing.T) {
	c := testCluster(t, "n1", "n2", "n3")
	c.RegisterImage("digi/block", blockingImage(nil, nil))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				name := fmt.Sprintf("churn-%d-%d", g, i)
				if err := c.CreatePod(&Pod{Name: name, Spec: PodSpec{Image: "digi/block"}}); err != nil {
					t.Error(err)
					return
				}
				if i%2 == 0 {
					c.DeletePod(name)
				}
			}
		}(g)
	}
	wg.Wait()
	waitFor(t, func() bool {
		st := c.Stats()
		return st.PodsRunning == 40 && st.PodsPending == 0
	}, "40 survivors running")
}

func TestWaitAllRunningReportsFailure(t *testing.T) {
	c := testCluster(t, "n1")
	c.CreatePod(&Pod{Name: "bad", Spec: PodSpec{Image: "digi/missing"}})
	err := c.WaitAllRunning(3 * time.Second)
	if err == nil {
		t.Fatal("want failure")
	}
}

// A delivered event (and its pod copy) must not stay reachable from the
// watcher's queue: once the consumer drops it, the collector frees it
// while the watch is still open.
func TestPodWatcherPumpReleasesDeliveredEvents(t *testing.T) {
	a := NewCluster().api
	w := a.watchNames("p0", "p1", "p2")
	defer w.Close()
	for i := 0; i < 3; i++ {
		if err := a.createPod(&Pod{Name: fmt.Sprintf("p%d", i), Spec: PodSpec{Image: "missing"}}); err != nil {
			t.Fatal(err)
		}
	}
	var freed atomic.Int32
	for i := 0; i < 3; i++ {
		ev := <-w.C
		runtime.SetFinalizer(ev.Pod, func(*Pod) { freed.Add(1) })
	}
	waitFor(t, func() bool {
		runtime.GC()
		return freed.Load() == 3
	}, "delivered pods collected")
}
