package core

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/device"
	"repro/internal/kube"
	"repro/internal/model"
	"repro/internal/property"
	"repro/internal/scene"
)

// newTestbed builds a started laptop-scale testbed with the full kind
// libraries registered.
func newTestbed(t *testing.T, opts Options) *Testbed {
	t.Helper()
	tb, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := device.RegisterAll(tb.Registry); err != nil {
		t.Fatal(err)
	}
	if err := scene.RegisterAll(tb.Registry); err != nil {
		t.Fatal(err)
	}
	if err := tb.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Stop)
	return tb
}

func TestRunCheckStopLifecycle(t *testing.T) {
	tb := newTestbed(t, Options{})
	if err := tb.Run("Lamp", "L1", nil); err != nil {
		t.Fatal(err)
	}
	doc, err := tb.Check("L1")
	if err != nil {
		t.Fatal(err)
	}
	if doc.Type() != "Lamp" || doc.Name() != "L1" {
		t.Errorf("doc = %v", doc)
	}
	if st := tb.Stats(); st.Models != 1 || st.PodsRunning != 1 {
		t.Errorf("stats = %+v", st)
	}
	if err := tb.StopDigi("L1"); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Check("L1"); err == nil {
		t.Error("stopped digi still present")
	}
	if err := tb.StopDigi("L1"); err == nil {
		t.Error("double stop succeeded")
	}
}

func TestRunValidation(t *testing.T) {
	tb := newTestbed(t, Options{})
	if err := tb.Run("NoSuchType", "X", nil); err == nil {
		t.Error("unregistered type accepted")
	}
	if err := tb.Run("Lamp", "L1", nil); err != nil {
		t.Fatal(err)
	}
	if err := tb.Run("Lamp", "L1", nil); err == nil {
		t.Error("duplicate name accepted")
	}
}

func TestRunWithConfig(t *testing.T) {
	tb := newTestbed(t, Options{})
	if err := tb.Run("Occupancy", "O1", map[string]any{
		"seed":         int64(7),
		"interval_ms":  int64(50),
		"trigger_prob": 1.0,
	}); err != nil {
		t.Fatal(err)
	}
	// With trigger probability 1 the sensor must trigger quickly.
	if err := tb.WaitConverged(5*time.Second, func() bool {
		d, _ := tb.Check("O1")
		return d != nil && d.GetBool("triggered")
	}); err != nil {
		t.Fatal(err)
	}
}

func TestEditEnforcesSchema(t *testing.T) {
	tb := newTestbed(t, Options{})
	if err := tb.Run("Lamp", "L1", nil); err != nil {
		t.Fatal(err)
	}
	if err := tb.Edit("L1", map[string]any{"power": map[string]any{"intent": "on"}}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Edit("L1", map[string]any{"power": map[string]any{"intent": "banana"}}); err == nil {
		t.Error("enum violation accepted")
	}
	if err := tb.Edit("ghost", nil); err == nil {
		t.Error("edit of missing model accepted")
	}
	// The running lamp digi converges status onto the valid intent.
	if err := tb.WaitConverged(5*time.Second, func() bool {
		d, _ := tb.Check("L1")
		return d != nil && d.GetString("power.status") == "on"
	}); err != nil {
		t.Fatal(err)
	}
}

func TestAttachSemantics(t *testing.T) {
	tb := newTestbed(t, Options{})
	for _, r := range [][2]string{{"Occupancy", "O1"}, {"Room", "R1"}, {"Building", "B1"}} {
		if err := tb.Run(r[0], r[1], map[string]any{"managed": false}); err != nil {
			t.Fatal(err)
		}
	}
	// Attach to non-scene fails.
	if err := tb.Attach("R1", "O1"); err == nil {
		t.Error("attach to a mock accepted")
	}
	if err := tb.Attach("O1", "O1"); err == nil {
		t.Error("self attach accepted")
	}
	if err := tb.Attach("O1", "R1"); err != nil {
		t.Fatal(err)
	}
	if err := tb.Attach("R1", "B1"); err != nil {
		t.Fatal(err)
	}
	// Cycle: B1 -> R1 exists, R1 -> B1 must fail... i.e. attaching B1
	// under R1 closes the loop.
	if err := tb.Attach("B1", "R1"); err == nil {
		t.Error("attach cycle accepted")
	}
	// Attached child is unmanaged.
	d, _ := tb.Check("O1")
	if d.Managed() {
		t.Error("attached child still managed")
	}
	r, _ := tb.Check("R1")
	if !containsString(r.Attach(), "O1") {
		t.Errorf("R1 attach = %v", r.Attach())
	}
	// Detach restores management.
	if err := tb.Detach("O1", "R1"); err != nil {
		t.Fatal(err)
	}
	d, _ = tb.Check("O1")
	if !d.Managed() {
		t.Error("detached child not re-managed")
	}
	if err := tb.Detach("O1", "R1"); err == nil {
		t.Error("double detach accepted")
	}
}

func TestStopDigiPrunesAttachRefs(t *testing.T) {
	tb := newTestbed(t, Options{})
	tb.Run("Room", "R1", map[string]any{"managed": false})
	tb.Run("Occupancy", "O1", nil)
	tb.Attach("O1", "R1")
	if err := tb.StopDigi("O1"); err != nil {
		t.Fatal(err)
	}
	r, _ := tb.Check("R1")
	if containsString(r.Attach(), "O1") {
		t.Errorf("dangling attach ref: %v", r.Attach())
	}
}

// TestFig6Hierarchy reproduces the paper's Fig. 6: ConfCenter building
// with MeetingRoom and Kitchen, occupancy sensors and a lamp, and
// asserts the ensemble consistency the scene-centric design provides.
func TestFig6Hierarchy(t *testing.T) {
	tb := newTestbed(t, Options{})
	mustRun := func(typ, name string, cfg map[string]any) {
		t.Helper()
		if err := tb.Run(typ, name, cfg); err != nil {
			t.Fatal(err)
		}
	}
	mustRun("Occupancy", "O1", nil)
	mustRun("Underdesk", "D1", nil)
	mustRun("Lamp", "L1", nil)
	mustRun("Occupancy", "O2", nil)
	// Rooms unmanaged: the building drives presence deterministically.
	mustRun("Room", "MeetingRoom", map[string]any{"managed": false})
	mustRun("Room", "Kitchen", map[string]any{"managed": false})
	mustRun("Building", "ConfCenter", map[string]any{"managed": false})

	for _, att := range [][2]string{
		{"O1", "MeetingRoom"}, {"D1", "MeetingRoom"}, {"L1", "MeetingRoom"},
		{"O2", "Kitchen"},
		{"MeetingRoom", "ConfCenter"}, {"Kitchen", "ConfCenter"},
	} {
		if err := tb.Attach(att[0], att[1]); err != nil {
			t.Fatal(err)
		}
	}

	// Building assigns 2 humans -> both rooms occupied; all sensors
	// consistent; lamp on in occupied meeting room.
	if err := tb.Edit("ConfCenter", map[string]any{"num_human": 2}); err != nil {
		t.Fatal(err)
	}
	if err := tb.WaitConverged(10*time.Second, func() bool {
		o1, _ := tb.Check("O1")
		o2, _ := tb.Check("O2")
		l1, _ := tb.Check("L1")
		return o1 != nil && o2 != nil && l1 != nil &&
			o1.GetBool("triggered") && o2.GetBool("triggered") &&
			l1.GetString("power.status") == "on"
	}); err != nil {
		st := map[string]any{}
		for _, n := range tb.Names() {
			d, _ := tb.Check(n)
			st[n] = map[string]any(d)
		}
		t.Fatalf("%v; state: %v", err, st)
	}

	// 0 humans -> everything clears, desk sensor cannot stay triggered.
	if err := tb.Edit("ConfCenter", map[string]any{"num_human": 0}); err != nil {
		t.Fatal(err)
	}
	if err := tb.WaitConverged(10*time.Second, func() bool {
		o1, _ := tb.Check("O1")
		d1, _ := tb.Check("D1")
		l1, _ := tb.Check("L1")
		return o1 != nil && !o1.GetBool("triggered") &&
			d1 != nil && !d1.GetBool("triggered") &&
			l1 != nil && l1.GetString("power.status") == "off"
	}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCheckingThroughTestbed(t *testing.T) {
	tb := newTestbed(t, Options{})
	tb.Run("Lamp", "L1", nil)
	tb.Run("Occupancy", "O1", map[string]any{"managed": false})
	if err := tb.AddProperty(&property.Property{
		Name: "lamp-off-when-unoccupied",
		Kind: property.Never,
		Cond: property.Condition{
			{Model: "O1", Path: "triggered", Op: property.Eq, Value: false},
			{Model: "L1", Path: "power.status", Op: property.Eq, Value: "on"},
		},
	}); err != nil {
		t.Fatal(err)
	}
	// Force the disallowed state: sensor clear, lamp on.
	tb.Edit("L1", map[string]any{"power": map[string]any{"intent": "on"}})
	if err := tb.WaitConverged(5*time.Second, func() bool {
		return len(tb.Violations()) > 0
	}); err != nil {
		t.Fatal("no violation reported")
	}
}

// A testbed with no property runs no checker: no store watcher and no
// goroutine. The first property, added after Start, starts it.
func TestIdleCheckerWatchesNothing(t *testing.T) {
	tb := newTestbed(t, Options{BrokerAddr: "none", RESTAddr: "none"})
	checkerRunning := func() bool {
		buf := make([]byte, 1<<20)
		return strings.Contains(string(buf[:runtime.Stack(buf, true)]), "property.(*Checker).monitor")
	}
	if checkerRunning() {
		t.Fatal("a testbed with no property runs a checker watch")
	}
	tb.Run("Lamp", "L1", nil)
	if err := tb.AddProperty(&property.Property{
		Name: "lamp-never-on",
		Kind: property.Never,
		Cond: property.Condition{{Model: "L1", Path: "power.status", Op: property.Eq, Value: "on"}},
	}); err != nil {
		t.Fatal(err)
	}
	if !checkerRunning() {
		t.Fatal("a property added after Start started no checker watch")
	}
	tb.Edit("L1", map[string]any{"power": map[string]any{"intent": "on"}})
	if err := tb.WaitConverged(5*time.Second, func() bool {
		return len(tb.Violations()) > 0
	}); err != nil {
		t.Fatal("no violation reported")
	}
}

func TestRESTThroughTestbed(t *testing.T) {
	tb := newTestbed(t, Options{})
	tb.Run("Lamp", "L1", nil)
	cli := tb.RESTClient()
	status, err := cli.Status("L1")
	if err != nil {
		t.Fatal(err)
	}
	if status["power"] != "off" {
		t.Errorf("status = %v", status)
	}
	// App sends a command over REST; the digi actuates it.
	if err := cli.Patch("L1", map[string]any{"power": map[string]any{"intent": "on"}}); err != nil {
		t.Fatal(err)
	}
	if err := tb.WaitConverged(5*time.Second, func() bool {
		s, err := cli.Status("L1")
		return err == nil && s["power"] == "on"
	}); err != nil {
		t.Fatal(err)
	}
}

func TestZoneDelayAffectsGateway(t *testing.T) {
	tb := newTestbed(t, Options{
		Nodes: []NodeSpec{{Name: "ec2-a", Capacity: 100, Zone: "us-east"}},
		ZoneDelays: []ZoneDelay{
			{A: "client", B: "us-east", Delay: 20 * time.Millisecond},
		},
		GatewayZone: "client",
	})
	tb.Run("Lamp", "L1", nil)
	cli := tb.RESTClient()
	start := time.Now()
	if _, err := cli.Status("L1"); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Errorf("request took %v, want >= 40ms (2 x 20ms zone delay)", elapsed)
	}
}

func TestMQTTThroughTestbed(t *testing.T) {
	tb := newTestbed(t, Options{})
	tb.Run("Occupancy", "O1", map[string]any{"interval_ms": int64(50)})
	if tb.BrokerAddr() == "" {
		t.Fatal("broker not listening")
	}
	// Paper Fig. 2: the app subscribes to mock status over MQTT.
	got := make(chan struct{}, 1)
	cli, err := broker.Dial(tb.BrokerAddr(), &broker.ClientOptions{ClientID: "app"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	if err := cli.Subscribe("digibox/O1/status", 0, func(_ broker.Message) {
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
		t.Fatal("no MQTT status from running mock")
	}
}

func TestSubtree(t *testing.T) {
	tb := newTestbed(t, Options{})
	tb.Run("Room", "R1", map[string]any{"managed": false})
	tb.Run("Occupancy", "O1", nil)
	tb.Run("Lamp", "L1", nil)
	tb.Attach("O1", "R1")
	tb.Attach("L1", "R1")
	names, err := tb.Subtree("R1")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 || names[len(names)-1] != "R1" {
		t.Errorf("subtree = %v (want children before root)", names)
	}
	if _, err := tb.Subtree("ghost"); err == nil {
		t.Error("missing root accepted")
	}
}

func TestSchemaCodecRoundTrip(t *testing.T) {
	for _, k := range device.All() {
		data, err := model.EncodeSchema(k.Schema)
		if err != nil {
			t.Fatalf("%s: %v", k.Type(), err)
		}
		back, err := model.DecodeSchema(data)
		if err != nil {
			t.Fatalf("%s: decode: %v\n%s", k.Type(), err, data)
		}
		data2, err := model.EncodeSchema(back)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", k.Type(), err)
		}
		if string(data) != string(data2) {
			t.Errorf("%s: schema codec not canonical:\n%s\nvs\n%s", k.Type(), data, data2)
		}
	}
	if _, err := model.DecodeSchema([]byte("- not a schema")); err == nil {
		t.Error("bad schema doc accepted")
	}
}

func TestFormatDoc(t *testing.T) {
	d := model.Doc{}
	d.SetMeta(model.Meta{Type: "Lamp", Name: "L1"})
	out := FormatDoc(d)
	if !strings.Contains(out, "type: Lamp") {
		t.Errorf("FormatDoc = %q", out)
	}
}

func TestReattachMobility(t *testing.T) {
	tb := newTestbed(t, Options{})
	tb.Run("Street", "StreetA", map[string]any{"managed": false})
	tb.Run("Street", "StreetB", map[string]any{"managed": false})
	tb.Run("GPSTracker", "Phone1", nil)
	tb.Attach("Phone1", "StreetA")
	tb.Edit("StreetA", map[string]any{"traffic": 0.9})
	tb.Edit("StreetB", map[string]any{"traffic": 0.0})
	if err := tb.WaitConverged(5*time.Second, func() bool {
		d, _ := tb.Check("Phone1")
		return d != nil && d.GetBool("moving")
	}); err != nil {
		t.Fatal("tracker not moving on busy street")
	}
	if err := tb.Reattach("Phone1", "StreetA", "StreetB"); err != nil {
		t.Fatal(err)
	}
	if err := tb.WaitConverged(5*time.Second, func() bool {
		d, _ := tb.Check("Phone1")
		return d != nil && !d.GetBool("moving")
	}); err != nil {
		t.Fatal("tracker still moving after re-attach to quiet street")
	}
}

func TestNodeFailureKeepsEnsembleAlive(t *testing.T) {
	tb := newTestbed(t, Options{
		Nodes: []NodeSpec{
			{Name: "n1", Capacity: 100, Zone: "local"},
			{Name: "n2", Capacity: 100, Zone: "local"},
		},
	})
	tb.Run("Occupancy", "O1", nil)
	tb.Run("Room", "R1", map[string]any{"managed": false})
	tb.Attach("O1", "R1")

	// Find whichever node hosts the room's pod and fail it.
	pod, err := tb.Cluster.GetPod("digi-r1")
	if err != nil {
		t.Fatal(err)
	}
	failed := pod.Status.NodeName
	if err := tb.Cluster.SetNodeReady(failed, false); err != nil {
		t.Fatal(err)
	}
	// The digi is rescheduled onto the surviving node and resumes
	// coordinating: a scene event still drives the sensor.
	if err := tb.WaitConverged(10*time.Second, func() bool {
		p, err := tb.Cluster.GetPod("digi-r1")
		return err == nil && p.Status.Phase == kube.PodRunning && p.Status.NodeName != failed
	}); err != nil {
		t.Fatal("room digi not rescheduled:", err)
	}
	if err := tb.Edit("R1", map[string]any{"human_presence": true}); err != nil {
		t.Fatal(err)
	}
	if err := tb.WaitConverged(10*time.Second, func() bool {
		d, _ := tb.Check("O1")
		return d != nil && d.GetBool("triggered")
	}); err != nil {
		t.Fatal("ensemble dead after node failure:", err)
	}
}

// Stopping a digi drops its readiness, and a reconciler left over from
// the stopped incarnation cannot mark the next one ready.
func TestStopDigiDropsReadiness(t *testing.T) {
	tb := newTestbed(t, Options{BrokerAddr: "none", RESTAddr: "none"})
	if err := tb.Run("Lamp", "L1", nil); err != nil {
		t.Fatal(err)
	}
	pod, err := tb.Cluster.GetPod(podName("L1"))
	if err != nil {
		t.Fatal(err)
	}
	stale := pod.Spec.Env
	if err := tb.StopDigi("L1"); err != nil {
		t.Fatal(err)
	}
	if err := tb.Runtime.WaitReady("L1", time.Millisecond); err == nil {
		t.Fatal("a stopped digi reports ready")
	}

	// A new incarnation is expected and its model stored, and the old
	// incarnation's reconciler starts late, before the new one does.
	kind, _ := tb.Registry.Get("Lamp")
	if err := tb.Store.Create(kind.Schema.New("L1")); err != nil {
		t.Fatal(err)
	}
	inc := tb.Runtime.Expect("L1")
	start := func(env map[string]any) (stop func()) {
		w, err := tb.Runtime.ImageFactory()(env)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() { defer close(done); w.Run(ctx) }()
		return func() { cancel(); <-done }
	}
	logged := len(tb.Log.RecordsFor("L1"))
	stopStale := start(stale)
	// Its boot snapshot is logged after the point where it would have
	// marked itself ready.
	deadline := time.Now().Add(5 * time.Second)
	for len(tb.Log.RecordsFor("L1")) == logged {
		if time.Now().After(deadline) {
			t.Fatal("the stale reconciler never started")
		}
		time.Sleep(time.Millisecond)
	}
	if err := tb.Runtime.WaitReady("L1", 20*time.Millisecond); err == nil {
		t.Fatal("the old incarnation's reconciler marked the new one ready")
	}
	stopStale()
	stopFresh := start(map[string]any{"name": "L1", "incarnation": inc})
	defer stopFresh()
	if err := tb.Runtime.WaitReady("L1", 5*time.Second); err != nil {
		t.Fatalf("the new incarnation's own reconciler: %v", err)
	}
}

// A running mock costs one goroutine, its pod's: its watch queue holds
// none at rest.
func TestOneGoroutinePerMock(t *testing.T) {
	const mocks, slack = 40, 5
	tb := newTestbed(t, Options{BrokerAddr: "none", RESTAddr: "none"})
	base := runtime.NumGoroutine()
	for i := 0; i < mocks; i++ {
		if err := tb.Run("Occupancy", fmt.Sprintf("O%02d", i), map[string]any{"managed": false}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base+mocks+slack {
		if time.Now().After(deadline) {
			t.Fatalf("%d running mocks added %d goroutines, want at most %d",
				mocks, runtime.NumGoroutine()-base, mocks+slack)
		}
		time.Sleep(time.Millisecond)
	}
}

// A Room of 800 Occupancy mocks fans each PATCH out to 800 status
// publishes, all routed to one QoS 0 wire subscriber whose session
// corks them into batches. The session's queue (256) fills while its
// write loop is corked; that must never shed a status. Over 10 PATCHes
// — five with publishers and write loop on one P, five on two — every
// mock's status arrives exactly once per PATCH, in order, and the
// broker drops nothing.
func TestSceneBurstReachesWireSubscriberWhole(t *testing.T) {
	const mocks, patches = 800, 10
	tb := newTestbed(t, Options{RESTAddr: "none"})
	// A mock's set-up statuses all read {"triggered":false}; its PATCH
	// statuses start at the first live {"triggered":true}, PATCH 1's.
	var mu sync.Mutex
	got := make(map[string][]string, mocks) // PATCH statuses per topic
	reached := make([]int, patches+2)       // reached[n]: topics with n PATCH statuses
	total := 0
	cli, err := broker.Dial(tb.BrokerAddr(), &broker.ClientOptions{ClientID: "app"})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Subscribe("digibox/+/status", 0, func(m broker.Message) {
		mu.Lock()
		defer mu.Unlock()
		total++
		seq := got[m.Topic]
		if m.Retained || len(seq) == 0 && string(m.Payload) != `{"triggered":true}` {
			return
		}
		seq = append(seq, string(m.Payload))
		got[m.Topic] = seq
		reached[min(len(seq), patches+1)]++
	}); err != nil {
		t.Fatal(err)
	}
	// Every publish so far has arrived. (A status published while the
	// subscription was being made may arrive twice, live and retained.)
	settled := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return int64(total) >= tb.Broker.Stats().PublishesIn
	}

	if err := tb.Run("Room", "R", map[string]any{"managed": false}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < mocks; i++ {
		name := fmt.Sprintf("occ%03d", i)
		if err := tb.Run("Occupancy", name, map[string]any{"interval_ms": int64(3600000)}); err != nil {
			t.Fatal(err)
		}
		if err := tb.Attach(name, "R"); err != nil {
			t.Fatal(err)
		}
	}
	// Each mock publishes at boot and when Attach parks its generator.
	if tb.WaitConverged(30*time.Second, func() bool { return tb.Broker.Stats().PublishesIn >= 2*mocks && settled() }) != nil {
		t.Fatalf("set-up statuses did not all arrive; broker %+v", tb.Broker.Stats())
	}

	for p := 1; p <= patches; p++ {
		procs := 1 + (p-1)*2/patches
		prev := runtime.GOMAXPROCS(procs)
		if err := tb.Edit("R", map[string]any{"human_presence": p%2 == 1}); err != nil {
			t.Fatal(err)
		}
		err := tb.WaitConverged(10*time.Second, func() bool {
			mu.Lock()
			defer mu.Unlock()
			return reached[p] == mocks
		})
		runtime.GOMAXPROCS(prev)
		if err != nil {
			mu.Lock()
			n := reached[p]
			mu.Unlock()
			t.Fatalf("PATCH %d at GOMAXPROCS %d: %d of %d statuses arrived; broker %+v",
				p, procs, n, mocks, tb.Broker.Stats())
		}
	}
	if tb.WaitConverged(10*time.Second, settled) != nil {
		t.Fatalf("statuses did not all arrive; broker %+v", tb.Broker.Stats())
	}
	if d := tb.Broker.Stats().Dropped; d != 0 {
		t.Fatalf("the broker dropped %d statuses", d)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != mocks {
		t.Fatalf("statuses from %d mocks, want %d", len(got), mocks)
	}
	for topic, seq := range got {
		if len(seq) != patches {
			t.Fatalf("%s: %d statuses, want %d: %v", topic, len(seq), patches, seq)
		}
		for i, payload := range seq {
			if want := fmt.Sprintf(`{"triggered":%t}`, i%2 == 0); payload != want {
				t.Fatalf("%s: status %d is %s, want %s (all: %v)", topic, i, payload, want, seq)
			}
		}
	}
}
