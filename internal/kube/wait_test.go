package kube

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
)

// WaitPodPhase blocks until the pod reaches the phase or the timeout
// elapses.
func (c *Cluster) WaitPodPhase(name string, phase PodPhase, timeout time.Duration) error {
	d := clock.NewDeadline(c.clock, timeout, waitGrace)
	defer d.Stop()
	events, stop := c.WatchPods(name)
	defer stop()
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				return fmt.Errorf("kube: watch closed waiting for pod %q", name)
			}
			if ev.Type == Deleted {
				return fmt.Errorf("kube: pod %q deleted while waiting for %s", name, phase)
			}
			if ev.Pod.Status.Phase == phase {
				return nil
			}
		case <-d.Done():
			return fmt.Errorf("kube: timeout waiting for pod %q to reach %s", name, phase)
		}
	}
}

// The scenario deadline bounds the schedule, not the host: a pod whose
// first event does not match, on a clock already past the deadline,
// still has the wall grace for the matching event to arrive.
func TestWaitPodPhaseGraceAfterNonMatchingEvent(t *testing.T) {
	s := clock.NewScaled(clock.SpeedMax, nil)
	go s.Drive()
	defer s.Stop()
	c := NewCluster()
	c.SetClock(s)
	if err := c.api.createPod(&Pod{Name: "p", Spec: PodSpec{Image: "x"}}); err != nil {
		t.Fatal(err)
	}
	late := time.AfterFunc(50*time.Millisecond, func() {
		c.api.updatePod("p", func(p *Pod) bool {
			p.Status.Phase = PodRunning
			return true
		})
	})
	defer late.Stop()
	if err := c.WaitPodPhase("p", PodRunning, 0); err != nil {
		t.Fatal(err)
	}
}

// Waiting on one pod must not copy the cluster: the watch filter runs
// on the stored pods and only the match is copied.
func TestWaitPodPhaseCopiesOnlyItsPod(t *testing.T) {
	waitAllocs := func(pods int) float64 {
		c := NewCluster()
		for i := 0; i < pods; i++ {
			p := &Pod{Name: fmt.Sprintf("p%d", i), Spec: PodSpec{Image: "x", Env: map[string]any{"name": i}},
				Labels: map[string]string{"digi": "d"}, Status: PodStatus{Phase: PodRunning}}
			if err := c.api.createPod(p); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(10, func() {
			if err := c.WaitPodPhase("p0", PodRunning, time.Second); err != nil {
				t.Fatal(err)
			}
		})
	}
	sample := &Pod{Name: "p", Spec: PodSpec{Image: "x", Env: map[string]any{"name": 0}}, Labels: map[string]string{"digi": "d"}}
	perCopy := testing.AllocsPerRun(10, func() { sample.DeepCopy() })
	one, many := waitAllocs(1), waitAllocs(2000)
	if many > one+3*perCopy {
		t.Errorf("WaitPodPhase allocates %.0f on 2,000 pods against %.0f on one (a pod copy is %.0f): more than 4 pods copied", many, one, perCopy)
	}
}
