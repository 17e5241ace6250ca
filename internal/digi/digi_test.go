package digi

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/clock"
	"repro/internal/kube"
	"repro/internal/model"
	"repro/internal/trace"
)

// Test kinds mirroring the paper's Fig. 4/5 walkthrough.

func occupancyKind() *Kind {
	return &Kind{
		Schema: &model.Schema{
			Type: "Occupancy", Version: "v1",
			Fields: map[string]model.FieldSpec{
				"triggered": {Kind: model.KindBool, Default: false},
			},
		},
		DefaultInterval: 20 * time.Millisecond,
		Loop: func(c *Ctx, work *model.Draft) error {
			work.Set("triggered", c.Rand.Intn(2) == 0)
			return nil
		},
		Sim: func(c *Ctx, work *model.Draft, atts Atts) error {
			return c.PublishFields(work, "triggered")
		},
	}
}

func lampKind() *Kind {
	return &Kind{
		Schema: &model.Schema{
			Type: "Lamp", Version: "v1",
			Fields: map[string]model.FieldSpec{
				"power":     {Kind: model.KindIntent, ElemKind: model.KindString, Enum: []string{"on", "off"}, Default: "off"},
				"intensity": {Kind: model.KindIntent, ElemKind: model.KindFloat, Default: 0.0},
			},
		},
		Sim: func(c *Ctx, work *model.Draft, atts Atts) error {
			// Fig. 4 L16-26: intensity.status follows power.
			power := work.GetString("power.intent")
			work.SetStatus("power", power)
			if power == "off" {
				work.SetStatus("intensity", 0.0)
			} else {
				v, _ := work.GetFloat("intensity.intent")
				work.SetStatus("intensity", v)
			}
			return nil
		},
	}
}

func roomKind() *Kind {
	return &Kind{
		Schema: &model.Schema{
			Type: "Room", Version: "v1", Scene: true,
			Fields: map[string]model.FieldSpec{
				"human_presence": {Kind: model.KindBool, Default: false},
			},
		},
		DefaultInterval: 20 * time.Millisecond,
		Loop: func(c *Ctx, work *model.Draft) error {
			work.Set("human_presence", c.Rand.Intn(2) == 0)
			return nil
		},
		Sim: func(c *Ctx, work *model.Draft, atts Atts) error {
			// Fig. 5 L7-17: occupancy sensors follow human presence.
			presence := work.GetBool("human_presence")
			for _, occ := range atts.Get("Occupancy") {
				occ.Set("triggered", presence)
			}
			return nil
		},
	}
}

type harness struct {
	rt     *Runtime
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func newHarness(t *testing.T, kinds ...*Kind) *harness {
	t.Helper()
	reg := NewRegistry()
	for _, k := range kinds {
		if err := reg.Register(k); err != nil {
			t.Fatal(err)
		}
	}
	h := &harness{rt: &Runtime{
		Store:    model.NewStore(),
		Log:      trace.NewLog(),
		Registry: reg,
	}}
	return h
}

// spawn creates the model (managed per argument) and runs its digi.
func (h *harness) spawn(t *testing.T, kind *Kind, name string, managed bool) {
	t.Helper()
	doc := kind.Schema.New(name)
	doc.Set("meta.managed", managed)
	if err := h.rt.Store.Create(doc); err != nil {
		t.Fatal(err)
	}
	h.start(t, name)
}

func (h *harness) start(t *testing.T, name string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	old := h.cancel
	h.cancel = func() {
		cancel()
		if old != nil {
			old()
		}
	}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		if err := h.rt.Workload(name).Run(ctx); err != nil {
			t.Errorf("digi %s: %v", name, err)
		}
	}()
	t.Cleanup(h.stop)
	if err := h.rt.WaitReady(name, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

func (h *harness) stop() {
	if h.cancel != nil {
		h.cancel()
		h.cancel = nil
	}
	h.wg.Wait()
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

// Workload builds the kube workload that runs one digi instance. The
// instance's model must already exist in the runtime's store; the
// workload reconciles until its context is cancelled.
func (rt *Runtime) Workload(name string) kube.Workload {
	return rt.workload(name, 0)
}

func TestLoopGeneratesEventsWhileManaged(t *testing.T) {
	h := newHarness(t, occupancyKind())
	h.spawn(t, occupancyKind(), "O1", true)
	waitFor(t, func() bool {
		for _, r := range h.rt.Log.RecordsFor("O1") {
			if r.Kind == trace.KindEvent {
				return true
			}
		}
		return false
	}, "loop event")
}

func TestLoopSilentWhenUnmanaged(t *testing.T) {
	h := newHarness(t, occupancyKind())
	h.spawn(t, occupancyKind(), "O1", false)
	holds(t, 100*time.Millisecond, func() bool {
		for _, r := range h.rt.Log.RecordsFor("O1") {
			if r.Kind == trace.KindEvent {
				return false
			}
		}
		return true
	}, "unmanaged digi stays silent")
}

// A parked digi arms no Loop ticker on the testbed clock, whatever its
// interval: nothing is armed until it is managed again (Detach), and
// then its events resume on the clock; parking it again disarms it.
func TestParkedDigiArmsNoTicker(t *testing.T) {
	v := clock.NewVirtual()
	h := newHarness(t, occupancyKind())
	h.rt.Clock = v
	h.spawn(t, occupancyKind(), "O1", false)
	if at, ok := v.NextAt(); ok {
		t.Fatalf("parked digi left a timer armed at %v", at)
	}
	events := func() int {
		n := 0
		for _, r := range h.rt.Log.RecordsFor("O1") {
			if r.Kind == trace.KindEvent {
				n++
			}
		}
		return n
	}

	// Detach: the digi is managed again.
	if _, err := h.rt.Store.Patch("O1", map[string]any{"meta": map[string]any{"managed": true}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { _, ok := v.NextAt(); return ok }, "the ticker to be armed")
	waitFor(t, func() bool {
		v.Step(v.Now().Add(20 * time.Millisecond))
		return events() >= 3
	}, "Loop events on the virtual clock")

	// Attach again: parked, disarmed.
	if _, err := h.rt.Store.Patch("O1", map[string]any{"meta": map[string]any{"managed": false}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { _, ok := v.NextAt(); return !ok }, "the ticker to be disarmed")
}

func TestSimDerivesStatusFromIntent(t *testing.T) {
	h := newHarness(t, lampKind())
	h.spawn(t, lampKind(), "L1", true)

	// Initial pass: off -> intensity 0.
	waitFor(t, func() bool {
		d, _, _ := h.rt.Store.Get("L1")
		return d.GetString("power.status") == "off"
	}, "initial sim")

	// User edit (dbox edit): set intent on + intensity 0.7.
	_, err := h.rt.Store.Patch("L1", map[string]any{
		"power":     map[string]any{"intent": "on"},
		"intensity": map[string]any{"intent": 0.7},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		d, _, _ := h.rt.Store.Get("L1")
		v, _ := d.GetFloat("intensity.status")
		return d.GetString("power.status") == "on" && v == 0.7
	}, "sim to converge on intent")

	// Switch power off: intensity collapses to 0 regardless of intent.
	h.rt.Store.Patch("L1", map[string]any{"power": map[string]any{"intent": "off"}})
	waitFor(t, func() bool {
		d, _, _ := h.rt.Store.Get("L1")
		v, _ := d.GetFloat("intensity.status")
		return d.GetString("power.status") == "off" && v == 0
	}, "power off collapses intensity")
}

func TestSceneCoordinatesAttachedMocks(t *testing.T) {
	h := newHarness(t, occupancyKind(), roomKind())
	// Sensors unmanaged: the room drives them (ensemble).
	h.spawn(t, occupancyKind(), "O1", false)
	h.spawn(t, occupancyKind(), "O2", false)

	room := roomKind().Schema.New("MeetingRoom")
	room.Set("meta.managed", false)
	room.SetMeta(model.Meta{Type: "Room", Version: "v1", Name: "MeetingRoom", Managed: false, Attach: []string{"O1", "O2"}})
	room.Set("human_presence", false)
	if err := h.rt.Store.Create(room); err != nil {
		t.Fatal(err)
	}
	h.start(t, "MeetingRoom")

	// Drive the scene: presence true -> both sensors trigger.
	h.rt.Store.Patch("MeetingRoom", map[string]any{"human_presence": true})
	waitFor(t, func() bool {
		o1, _, _ := h.rt.Store.Get("O1")
		o2, _, _ := h.rt.Store.Get("O2")
		return o1.GetBool("triggered") && o2.GetBool("triggered")
	}, "sensors coordinated to true")

	h.rt.Store.Patch("MeetingRoom", map[string]any{"human_presence": false})
	waitFor(t, func() bool {
		o1, _, _ := h.rt.Store.Get("O1")
		o2, _, _ := h.rt.Store.Get("O2")
		return !o1.GetBool("triggered") && !o2.GetBool("triggered")
	}, "sensors coordinated to false")
}

func TestSceneEnforcesInvariantAgainstChildDrift(t *testing.T) {
	h := newHarness(t, occupancyKind(), roomKind())
	h.spawn(t, occupancyKind(), "O1", false)
	room := roomKind().Schema.New("R")
	room.SetMeta(model.Meta{Type: "Room", Version: "v1", Name: "R", Managed: false, Attach: []string{"O1"}})
	if err := h.rt.Store.Create(room); err != nil {
		t.Fatal(err)
	}
	h.start(t, "R")
	waitFor(t, func() bool {
		o1, _, _ := h.rt.Store.Get("O1")
		return !o1.GetBool("triggered")
	}, "initial coordination")

	// Perturb the child directly; the scene must pull it back.
	h.rt.Store.Patch("O1", map[string]any{"triggered": true})
	waitFor(t, func() bool {
		o1, _, _ := h.rt.Store.Get("O1")
		return !o1.GetBool("triggered")
	}, "scene re-coordinates drifted child")
}

func TestDynamicReattach(t *testing.T) {
	h := newHarness(t, occupancyKind(), roomKind())
	h.spawn(t, occupancyKind(), "Mobile", false)

	mk := func(name string, presence bool) {
		room := roomKind().Schema.New(name)
		room.SetMeta(model.Meta{Type: "Room", Version: "v1", Name: name, Managed: false})
		room.Set("human_presence", presence)
		if err := h.rt.Store.Create(room); err != nil {
			t.Fatal(err)
		}
		h.start(t, name)
	}
	mk("RoomA", true)
	mk("RoomB", false)

	// Attach to RoomA: sensor follows A's presence (true).
	h.rt.Store.Patch("RoomA", map[string]any{"meta": map[string]any{"attach": []any{"Mobile"}}})
	waitFor(t, func() bool {
		d, _, _ := h.rt.Store.Get("Mobile")
		return d.GetBool("triggered")
	}, "mobile sensor follows RoomA")

	// Re-attach to RoomB (urban-sensing mobility, §5).
	h.rt.Store.Patch("RoomA", map[string]any{"meta": map[string]any{"attach": []any{}}})
	h.rt.Store.Patch("RoomB", map[string]any{"meta": map[string]any{"attach": []any{"Mobile"}}})
	waitFor(t, func() bool {
		d, _, _ := h.rt.Store.Get("Mobile")
		return !d.GetBool("triggered")
	}, "mobile sensor follows RoomB")
}

// The reconciler's watch follows meta.attach (§5 mobility): after the
// child moves from scene A to scene B its commits wake B's reconciler
// and no longer A's, and they keep waking B across a delete and
// re-create under the same name.
func TestReattachMovesTheWatch(t *testing.T) {
	var mu sync.Mutex
	runs := map[string]int{}
	ran := func(name string) int {
		mu.Lock()
		defer mu.Unlock()
		return runs[name]
	}
	// A scene that only counts: it writes nothing, so every run is the
	// answer to one delivered update.
	counter := &Kind{
		Schema: &model.Schema{Type: "Counter", Version: "v1", Scene: true,
			Fields: map[string]model.FieldSpec{"note": {Kind: model.KindInt, Default: int64(0)}}},
		Sim: func(c *Ctx, work *model.Draft, atts Atts) error {
			mu.Lock()
			runs[c.Name]++
			mu.Unlock()
			return nil
		},
	}
	h := newHarness(t, counter, leafKind())
	newLeaf := func() {
		if err := h.rt.Store.Create(leafKind().Schema.New("M")); err != nil {
			t.Fatal(err)
		}
	}
	newLeaf()
	for name, attach := range map[string][]string{"A": {"M"}, "B": nil} {
		doc := counter.Schema.New(name)
		doc.SetMeta(model.Meta{Type: "Counter", Version: "v1", Name: name, Attach: attach})
		if err := h.rt.Store.Create(doc); err != nil {
			t.Fatal(err)
		}
		h.start(t, name)
	}
	patch := func(name string, p map[string]any) {
		t.Helper()
		if _, err := h.rt.Store.Patch(name, p); err != nil {
			t.Fatal(err)
		}
	}
	// step commits the child and checks who simulated: wakes' count goes
	// to want, sleeps' stays where it was for a while longer.
	step := func(value int64, wakes string, want int, sleeps string) {
		t.Helper()
		idle := ran(sleeps)
		patch("M", map[string]any{"value": value})
		waitFor(t, func() bool { return ran(wakes) == want }, fmt.Sprintf("%s to simulate on M's commit", wakes))
		holds(t, 50*time.Millisecond, func() bool { return ran(sleeps) == idle && ran(wakes) == want },
			fmt.Sprintf("M's commit reaching only %s", wakes))
	}
	waitFor(t, func() bool { return ran("A") == 1 && ran("B") == 1 }, "the boot simulates")
	step(1, "A", 2, "B")

	// Reattach M from A to B; each scene's own update re-indexes its
	// watch before the Simulate that answers it.
	patch("A", map[string]any{"meta": map[string]any{"attach": []any{}}})
	patch("B", map[string]any{"meta": map[string]any{"attach": []any{"M"}}})
	waitFor(t, func() bool { return ran("A") == 3 && ran("B") == 2 }, "both scenes to see their attach edit")
	step(2, "B", 3, "A")

	// The index is by name: the child's delete and its successor are seen.
	h.rt.Store.Delete("M")
	waitFor(t, func() bool { return ran("B") == 4 }, "B to simulate on M's delete")
	newLeaf()
	waitFor(t, func() bool { return ran("B") == 5 }, "B to simulate on M's re-creation")
	step(3, "B", 6, "A")
}

func TestOfflineFaultInjection(t *testing.T) {
	h := newHarness(t, lampKind())
	h.spawn(t, lampKind(), "L1", true)
	waitFor(t, func() bool {
		d, _, _ := h.rt.Store.Get("L1")
		return d.GetString("power.status") == "off"
	}, "initial sim")

	// Take the device offline, then change intent: status must not follow.
	// The store patch is synchronous, so every sim tick after this sees
	// offline=true — no settle sleep needed before flipping intent.
	h.rt.Store.Patch("L1", map[string]any{"meta": map[string]any{"offline": true}})
	h.rt.Store.Patch("L1", map[string]any{"power": map[string]any{"intent": "on"}})
	holds(t, 100*time.Millisecond, func() bool {
		d, _, _ := h.rt.Store.Get("L1")
		return d.GetString("power.status") == "off"
	}, "offline device stays unsimulated")

	// Back online: next update converges.
	h.rt.Store.Patch("L1", map[string]any{"meta": map[string]any{"offline": false}})
	waitFor(t, func() bool {
		d, _, _ := h.rt.Store.Get("L1")
		return d.GetString("power.status") == "on"
	}, "device back online")
}

func TestPublishReachesMQTTSubscriber(t *testing.T) {
	b := broker.NewBroker(nil)
	if err := b.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)

	h := newHarness(t, occupancyKind())
	h.rt.Broker = b
	h.spawn(t, occupancyKind(), "O1", true)

	cli, err := broker.Dial(b.Addr(), &broker.ClientOptions{ClientID: "app"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	got := make(chan broker.Message, 16)
	if err := cli.Subscribe("digibox/O1/status", 0, func(m broker.Message) { got <- m }); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.Topic != "digibox/O1/status" || len(m.Payload) == 0 {
			t.Errorf("message = %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no status message over MQTT")
	}
}

func TestActionLoggingBothSides(t *testing.T) {
	h := newHarness(t, occupancyKind(), roomKind())
	h.spawn(t, occupancyKind(), "O1", false)
	room := roomKind().Schema.New("R")
	room.SetMeta(model.Meta{Type: "Room", Version: "v1", Name: "R", Managed: false, Attach: []string{"O1"}})
	h.rt.Store.Create(room)
	h.start(t, "R")

	h.rt.Store.Patch("R", map[string]any{"human_presence": true})
	waitFor(t, func() bool {
		o1, _, _ := h.rt.Store.Get("O1")
		return o1.GetBool("triggered")
	}, "coordination")

	// Scene-side coordination event and child-side action must both be
	// in the trace (§3.5).
	waitFor(t, func() bool {
		sceneSide, childSide := false, false
		for _, r := range h.rt.Log.Records() {
			if r.Kind == trace.KindEvent && r.Name == "R" && r.Fields["target"] == "O1" {
				sceneSide = true
			}
			if r.Kind == trace.KindAction && r.Name == "O1" {
				if v, ok := r.Sets["triggered"]; ok && v == true {
					childSide = true
				}
			}
		}
		return sceneSide && childSide
	}, "both-side logging")
}

func TestSeedDeterminism(t *testing.T) {
	run := func() []bool {
		reg := NewRegistry()
		reg.Register(occupancyKind())
		rt := &Runtime{Store: model.NewStore(), Log: trace.NewLog(), Registry: reg}
		doc := occupancyKind().Schema.New("O1")
		doc.Set("meta.seed", 42)
		rt.Store.Create(doc)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() { rt.Workload("O1").Run(ctx); close(done) }()
		deadline := time.Now().Add(5 * time.Second)
		for rt.Log.Len() < 12 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		cancel()
		<-done
		var out []bool
		for _, r := range rt.Log.Records() {
			if r.Kind == trace.KindEvent {
				if v, ok := r.Fields["triggered"].(bool); ok {
					out = append(out, v)
				}
			}
		}
		if len(out) > 5 {
			out = out[:5]
		}
		return out
	}
	a, b := run(), run()
	if len(a) < 3 || len(b) < 3 {
		t.Fatalf("too few events: %v %v", a, b)
	}
	for i := 0; i < 3; i++ {
		if a[i] != b[i] {
			t.Fatalf("seeded runs diverge: %v vs %v", a, b)
		}
	}
}

func TestRuntimeErrorsOnMissingModelOrKind(t *testing.T) {
	reg := NewRegistry()
	rt := &Runtime{Store: model.NewStore(), Log: trace.NewLog(), Registry: reg}
	if err := rt.Workload("ghost").Run(context.Background()); err == nil {
		t.Error("missing model accepted")
	}
	doc := model.Doc{}
	doc.SetMeta(model.Meta{Type: "Unregistered", Name: "U"})
	rt.Store.Create(doc)
	if err := rt.Workload("U").Run(context.Background()); err == nil {
		t.Error("missing kind accepted")
	}
}

func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register(&Kind{}); err == nil {
		t.Error("kind without schema accepted")
	}
	reg.Register(lampKind())
	reg.Register(occupancyKind())
	if got := reg.Types(); len(got) != 2 || got[0] != "Lamp" || got[1] != "Occupancy" {
		t.Errorf("Types = %v", got)
	}
	if _, ok := reg.Get("Lamp"); !ok {
		t.Error("Get(Lamp) failed")
	}
	if _, ok := reg.Get("Nope"); ok {
		t.Error("Get(Nope) succeeded")
	}
}

func TestConfigAccessors(t *testing.T) {
	h := newHarness(t, lampKind())
	doc := lampKind().Schema.New("L1")
	doc.Set("meta.interval_ms", 250)
	doc.Set("meta.actuation_delay_ms", 40)
	doc.Set("meta.rate", 0.5)
	doc.Set("meta.verbose", true)
	h.rt.Store.Create(doc)
	c := &Ctx{Name: "L1", rt: h.rt, ctx: context.Background()}
	if d := c.ConfigDuration("interval", time.Second); d != 250*time.Millisecond {
		t.Errorf("interval = %v", d)
	}
	if d := c.ActuationDelay(); d != 40*time.Millisecond {
		t.Errorf("actuation = %v", d)
	}
	if v := c.ConfigFloat("rate", 0); v != 0.5 {
		t.Errorf("rate = %v", v)
	}
	if !c.ConfigBool("verbose", false) {
		t.Error("verbose")
	}
	if v := c.ConfigInt("missing", 7); v != 7 {
		t.Errorf("missing default = %v", v)
	}
}

func TestDigiOnKubeCluster(t *testing.T) {
	// Full integration: digis deployed as pods via the image factory.
	h := newHarness(t, occupancyKind(), roomKind())

	c := kube.NewCluster()
	c.RegisterImage("digi", h.rt.ImageFactory())
	c.AddNode("laptop", 50, "local")
	c.Start()
	t.Cleanup(c.Stop)

	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("O%d", i)
		doc := occupancyKind().Schema.New(name)
		if err := h.rt.Store.Create(doc); err != nil {
			t.Fatal(err)
		}
		if err := c.CreatePod(&kube.Pod{
			Name: name,
			Spec: kube.PodSpec{Image: "digi", Env: map[string]any{"name": name}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitAllRunning(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return h.rt.Log.Len() >= 5 }, "pod digis producing logs")
}

func TestAttsHelpers(t *testing.T) {
	a := Atts{"Occupancy": {"O2": model.NewDraft(nil), "O1": model.NewDraft(nil)}}
	if got := a.Names("Occupancy"); len(got) != 2 || got[0] != "O1" {
		t.Errorf("Names = %v", got)
	}
	if a.Get("Nope") != nil {
		t.Error("Get missing kind should be nil")
	}
	if got := a.Names("Nope"); len(got) != 0 {
		t.Errorf("Names missing = %v", got)
	}
}
