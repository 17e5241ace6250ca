package core

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/chaos"
	"repro/internal/kube"
	"repro/internal/trace"
)

// TestChaosPlanSceneSurvives is the acceptance scenario: a scene rides
// out a plan mixing broker, kube, and device fault kinds — the runtime
// session disconnected, status traffic dropped, a node killed — and at
// plan end the digi runtime is reconnected and still publishing.
func TestChaosPlanSceneSurvives(t *testing.T) {
	tb := newTestbed(t, Options{
		RuntimeMQTT: true,
		Nodes: []NodeSpec{
			{Name: "n1", Capacity: 100, Zone: "local"},
			{Name: "n2", Capacity: 100, Zone: "local"},
		},
	})
	if err := tb.Run("Occupancy", "O1", map[string]any{"interval_ms": int64(30), "trigger_prob": 1.0}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Run("Lamp", "L1", nil); err != nil {
		t.Fatal(err)
	}

	// Kill whichever node hosts the occupancy pod so the fault is real.
	pod, err := tb.Cluster.GetPod(podName("O1"))
	if err != nil {
		t.Fatal(err)
	}
	victim := pod.Status.NodeName

	plan := &chaos.Plan{
		Name: "survival",
		Seed: 7,
		Events: []chaos.Event{
			{At: 50 * time.Millisecond, Fault: chaos.FaultDisconnect, Client: "digi-runtime"},
			{At: 80 * time.Millisecond, Fault: chaos.FaultDrop, Topic: "digibox/#", Rate: 0.5, For: 250 * time.Millisecond},
			{At: 120 * time.Millisecond, Fault: chaos.FaultNodeDown, Node: victim, For: 300 * time.Millisecond},
			{At: 150 * time.Millisecond, Fault: chaos.FaultStuck, Digi: "L1", For: 200 * time.Millisecond},
		},
	}
	rep, err := tb.RunChaosPlan(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Skipped) != 0 {
		t.Fatalf("skipped injections: %v", rep.Skipped)
	}
	if rep.Injected != 4 || rep.Reverted != 3 {
		t.Errorf("report = %+v, want 4 injected / 3 reverted", rep)
	}

	// The runtime session must have reconnected after the forced
	// disconnect.
	if err := tb.WaitConverged(5*time.Second, func() bool {
		return tb.runtimeClient.IsConnected()
	}); err != nil {
		t.Fatal("digi runtime not reconnected after plan end")
	}
	// The evicted pod must be running again on the revived cluster.
	if err := tb.WaitConverged(5*time.Second, func() bool {
		p, err := tb.Cluster.GetPod(podName("O1"))
		return err == nil && p.Status.Phase == kube.PodRunning
	}); err != nil {
		t.Fatal("occupancy pod not rescheduled after node revival")
	}
	// And the scene must still be publishing status over MQTT.
	got := make(chan struct{}, 1)
	app, err := broker.Dial(tb.BrokerAddr(), &broker.ClientOptions{ClientID: "app"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { app.Close() })
	if err := app.Subscribe("digibox/O1/status", 1, func(broker.Message) {
		select {
		case got <- struct{}{}:
		default:
		}
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("no MQTT status after the chaos plan finished")
	}
	// The trace carries the injected faults and the runtime's gap/
	// recovery markers.
	sig := chaos.Signature(tb.Log.Records())
	if len(sig) != 7 {
		t.Errorf("chaos signature has %d lines, want 7 (4 faults + 3 reverts):\n%v", len(sig), sig)
	}
	var sawGap, sawRecover bool
	for _, r := range tb.Log.Faults() {
		switch r.Fault {
		case "broker-gap":
			sawGap = true
		case "broker-recover":
			sawRecover = true
		}
	}
	if !sawGap || !sawRecover {
		t.Errorf("runtime gap markers missing: gap=%v recover=%v", sawGap, sawRecover)
	}
}

// TestChaosReplayDeterminism is the replayability contract: two fresh
// testbeds running the same seeded plan log identical fault-event
// signatures, jitter included.
func TestChaosReplayDeterminism(t *testing.T) {
	plan := &chaos.Plan{
		Name: "replay",
		Seed: 42,
		Events: []chaos.Event{
			{At: 10 * time.Millisecond, Fault: chaos.FaultDrop, Topic: "digibox/#", Rate: 0.3,
				For: 60 * time.Millisecond, Jitter: 40 * time.Millisecond},
			{At: 30 * time.Millisecond, Fault: chaos.FaultDropout, Digi: "O1",
				For: 50 * time.Millisecond, Jitter: 25 * time.Millisecond},
			{At: 70 * time.Millisecond, Fault: chaos.FaultDisconnect, Client: "app",
				Jitter: 30 * time.Millisecond},
		},
	}
	run := func() []string {
		tb := newTestbed(t, Options{})
		if err := tb.Run("Occupancy", "O1", nil); err != nil {
			t.Fatal(err)
		}
		// A real client session gives the disconnect event a victim.
		app, err := broker.Dial(tb.BrokerAddr(), &broker.ClientOptions{ClientID: "app", AutoReconnect: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { app.Close() })
		rep, err := tb.RunChaosPlan(context.Background(), plan)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Skipped) != 0 {
			t.Fatalf("skipped injections: %v", rep.Skipped)
		}
		return chaos.Signature(tb.Log.Records())
	}
	first := run()
	second := run()
	if len(first) == 0 {
		t.Fatal("empty chaos signature")
	}
	if len(first) != len(second) {
		t.Fatalf("signature lengths differ: %d vs %d\n%v\n%v", len(first), len(second), first, second)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("signature line %d differs:\n  %s\n  %s", i, first[i], second[i])
		}
	}
}

// TestRunWithChaos exercises the workload-under-fault helper: the scene
// keeps converging while the plan degrades the broker.
func TestRunWithChaos(t *testing.T) {
	tb := newTestbed(t, Options{RuntimeMQTT: true})
	if err := tb.Run("Lamp", "L1", nil); err != nil {
		t.Fatal(err)
	}
	plan := &chaos.Plan{
		Name: "during",
		Seed: 1,
		Events: []chaos.Event{
			{At: 10 * time.Millisecond, Fault: chaos.FaultDisconnect, Client: "digi-runtime"},
			{At: 30 * time.Millisecond, Fault: chaos.FaultDrop, Topic: "digibox/#", Rate: 0.4, For: 100 * time.Millisecond},
		},
	}
	rep, err := tb.RunWithChaos(plan, func() error {
		if err := tb.Edit("L1", map[string]any{"power": map[string]any{"intent": "on"}}); err != nil {
			return err
		}
		return tb.WaitConverged(10*time.Second, func() bool {
			d, _ := tb.Check("L1")
			return d != nil && d.GetString("power.status") == "on"
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Injected != 2 {
		t.Errorf("report = %+v, want 2 injected", rep)
	}
	if err := tb.WaitConverged(5*time.Second, func() bool {
		return tb.runtimeClient.IsConnected()
	}); err != nil {
		t.Fatal("runtime not reconnected after RunWithChaos")
	}
}

// TestDeviceFaultModesThroughChaos drives the device injector end to
// end: dropout silences a sensor's publishes, clear resumes them.
func TestDeviceFaultModesThroughChaos(t *testing.T) {
	tb := newTestbed(t, Options{})
	if err := tb.Run("Occupancy", "O1", map[string]any{"interval_ms": int64(20)}); err != nil {
		t.Fatal(err)
	}
	plan := &chaos.Plan{
		Name: "sensor",
		Seed: 3,
		Events: []chaos.Event{
			{At: 0, Fault: chaos.FaultDropout, Digi: "O1", For: 150 * time.Millisecond},
		},
	}
	if _, err := tb.RunChaosPlan(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	// The revert has fired: meta.fault must be gone and the sensor
	// publishing again.
	d, err := tb.Check("O1")
	if err != nil {
		t.Fatal(err)
	}
	if mode := d.GetString("meta.fault"); mode != "" {
		t.Errorf("meta.fault = %q after revert, want cleared", mode)
	}
	before := tb.Log.Len()
	if err := tb.WaitConverged(5*time.Second, func() bool {
		return tb.Log.Len() > before
	}); err != nil {
		t.Fatal("no activity after dropout cleared")
	}
}

// TestRuntimeRepublishesEveryTopicsLatestStatus kicks the digi
// runtime's MQTT session after several mocks have published: the
// broker-recover marker counts every digi's status topic, and the
// payload each topic is republished with is that digi's latest status.
func TestRuntimeRepublishesEveryTopicsLatestStatus(t *testing.T) {
	tb := newTestbed(t, Options{RuntimeMQTT: true})
	lamps := []string{"L1", "L2", "L3", "L4"}
	for i, name := range lamps {
		if err := tb.Run("Lamp", name, nil); err != nil {
			t.Fatal(err)
		}
		// Two publishes each, the second different for every lamp.
		if err := tb.Edit(name, map[string]any{"power": map[string]any{"intent": "on"}}); err != nil {
			t.Fatal(err)
		}
		if err := tb.Edit(name, map[string]any{"intensity": map[string]any{"intent": 0.1 * float64(i+1)}}); err != nil {
			t.Fatal(err)
		}
	}
	// latest is each lamp's last status, as its trace records it.
	latest := func() map[string]string {
		out := map[string]string{}
		for _, r := range tb.Log.Records() {
			if r.Kind == trace.KindMessage && r.Direction == "send" {
				out[r.Topic] = r.Payload
			}
		}
		return out
	}
	want := map[string]string{}
	if err := tb.WaitConverged(5*time.Second, func() bool {
		want = latest()
		for i, name := range lamps {
			var st struct{ Intensity struct{ Status float64 } }
			if json.Unmarshal([]byte(want["digibox/"+name+"/status"]), &st) != nil || st.Intensity.Status != 0.1*float64(i+1) {
				return false
			}
		}
		return true
	}); err != nil {
		t.Fatalf("lamps never published their intensities: %v", want)
	}

	var mu sync.Mutex
	got := map[string][]string{}
	app, err := broker.Dial(tb.BrokerAddr(), &broker.ClientOptions{ClientID: "app"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { app.Close() })
	if err := app.Subscribe("digibox/+/status", 1, func(m broker.Message) {
		mu.Lock()
		got[m.Topic] = append(got[m.Topic], string(m.Payload))
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	// received reports whether every lamp's topic has delivered more
	// than n[topic] messages, the last of them its latest status.
	received := func(n map[string]int) bool {
		mu.Lock()
		defer mu.Unlock()
		for topic, payload := range want {
			if ms := got[topic]; len(ms) <= n[topic] || ms[len(ms)-1] != payload {
				return false
			}
		}
		return true
	}
	if err := tb.WaitConverged(5*time.Second, func() bool { return received(nil) }); err != nil {
		t.Fatal("the app never received every lamp's retained status")
	}
	mu.Lock()
	before := map[string]int{}
	for topic, ms := range got {
		before[topic] = len(ms)
	}
	mu.Unlock()

	if !tb.Broker.Kick("digi-runtime") {
		t.Fatal("no digi-runtime session to kick")
	}
	var marker string
	if err := tb.WaitConverged(5*time.Second, func() bool {
		for _, r := range tb.Log.Faults() {
			if r.Fault == "broker-recover" {
				marker = r.Detail
				return true
			}
		}
		return false
	}); err != nil {
		t.Fatal("no broker-recover marker after the kick")
	}
	if w := fmt.Sprintf("reconnected; republishing %d retained status topics", len(lamps)); marker != w {
		t.Errorf("broker-recover marker = %q, want %q", marker, w)
	}
	if err := tb.WaitConverged(5*time.Second, func() bool { return received(before) }); err != nil {
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("republished statuses %v, want each topic's latest %v", got, want)
	}
}
