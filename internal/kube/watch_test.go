package kube

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func nextPodEvent(t *testing.T, events <-chan PodEvent) PodEvent {
	t.Helper()
	select {
	case ev := <-events:
		return ev
	case <-time.After(5 * time.Second):
		t.Fatal("no pod event")
		return PodEvent{}
	}
}

func setPhase(phase PodPhase) func(*Pod) bool {
	return func(p *Pod) bool {
		p.Status.Phase = phase
		return true
	}
}

// A name watch replays only its own pods, once each and in name order,
// then sees only their events.
func TestNameWatchReplaysOnlyItsPods(t *testing.T) {
	c := NewCluster()
	for i := 0; i < 1000; i++ {
		if err := c.CreatePod(&Pod{Name: fmt.Sprintf("p%04d", i), Spec: PodSpec{Image: "x"}}); err != nil {
			t.Fatal(err)
		}
	}
	events, stop := c.WatchPods("p0500", "p0007", "p0007")
	defer stop()
	for _, want := range []string{"p0007", "p0500"} {
		if ev := nextPodEvent(t, events); ev.Type != Added || ev.Pod.Name != want {
			t.Fatalf("replayed %s %s, want Added %s", ev.Type, ev.Pod.Name, want)
		}
	}

	// Events arrive in commit order, so an unwatched pod's would come
	// first.
	c.api.updatePod("p0001", setPhase(PodRunning))
	c.api.updatePod("p0500", setPhase(PodRunning))
	if ev := nextPodEvent(t, events); ev.Type != Modified || ev.Pod.Name != "p0500" || ev.Pod.Status.Phase != PodRunning {
		t.Fatalf("got %s %s (%s), want p0500 Modified to Running", ev.Type, ev.Pod.Name, ev.Pod.Status.Phase)
	}

	c.DeletePod("p0008")
	c.DeletePod("p0007")
	if ev := nextPodEvent(t, events); ev.Type != Deleted || ev.Pod.Name != "p0007" {
		t.Fatalf("got %s %s, want p0007 Deleted", ev.Type, ev.Pod.Name)
	}
	if err := c.CreatePod(&Pod{Name: "p0007", Spec: PodSpec{Image: "x"}}); err != nil {
		t.Fatal(err)
	}
	if ev := nextPodEvent(t, events); ev.Type != Added || ev.Pod.Name != "p0007" {
		t.Fatalf("got %s %s, want p0007 Added", ev.Type, ev.Pod.Name)
	}
	select {
	case ev := <-events:
		t.Fatalf("unexpected event %s %s", ev.Type, ev.Pod.Name)
	default:
	}
}

// The package's own watchers share the stored pod: an update stores a
// changed copy and leaves the published pod as it was.
func TestStoredPodIsNeverMutated(t *testing.T) {
	a := NewCluster().api
	w := a.watchPods(nil)
	defer w.Close()
	if err := a.createPod(&Pod{Name: "p", Spec: PodSpec{Image: "x"}}); err != nil {
		t.Fatal(err)
	}
	added := nextPodEvent(t, w.C)
	if added.Pod != a.pods["p"] {
		t.Fatal("an internal watcher got a copy, not the stored pod")
	}
	if err := a.updatePod("p", setPhase(PodRunning)); err != nil {
		t.Fatal(err)
	}
	modified := nextPodEvent(t, w.C)
	if added.Pod.Status.Phase != PodPending || added.Pod.ResourceVersion == modified.Pod.ResourceVersion {
		t.Errorf("the published pod changed: phase %s, version %d", added.Pod.Status.Phase, added.Pod.ResourceVersion)
	}
	if modified.Pod.Status.Phase != PodRunning {
		t.Errorf("the update carries phase %s", modified.Pod.Status.Phase)
	}
}

// Writers, name watches opening and closing, and a predicate watcher
// reading every shared pod, all at once: run under -race.
func TestPodWatchChurn(t *testing.T) {
	c := NewCluster()
	a := c.api
	shared := a.watchPods(nil)
	read := make(chan int)
	go func() {
		n := 0
		for ev := range shared.C {
			n += len(ev.Pod.Status.Phase) + len(ev.Pod.Spec.Env)
		}
		read <- n
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				name := fmt.Sprintf("g%d-%02d", g, i)
				if err := c.CreatePod(&Pod{Name: name, Spec: PodSpec{Image: "x", Env: map[string]any{"i": i}}}); err != nil {
					t.Error(err)
					return
				}
				a.updatePod(name, setPhase(PodRunning))
				if i%3 == 0 {
					c.DeletePod(name)
				}
			}
		}(g)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				events, stop := c.WatchPods(fmt.Sprintf("g%d-%02d", g, i), fmt.Sprintf("g%d-%02d", (g+1)%4, i))
				select {
				case ev := <-events:
					ev.Pod.Status.Message = "mine"
				default:
				}
				stop()
			}
		}(g)
	}
	wg.Wait()
	shared.Close()
	<-read
	a.mu.RLock()
	defer a.mu.RUnlock()
	if len(a.byName) != 0 {
		t.Errorf("%d names still indexed after every name watch closed", len(a.byName))
	}
}
