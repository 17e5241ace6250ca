package device

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/digi"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/trace"
)

func TestLibraryHas20DistinctKinds(t *testing.T) {
	kinds := All()
	if len(kinds) != 20 {
		t.Fatalf("library has %d kinds, want 20 (paper: 'currently contains 20 device mocks')", len(kinds))
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		typ := k.Type()
		if typ == "" {
			t.Errorf("kind with empty type")
		}
		if seen[typ] {
			t.Errorf("duplicate kind %q", typ)
		}
		seen[typ] = true
		if k.Schema.Doc == "" {
			t.Errorf("%s: schema missing doc string", typ)
		}
		if k.Sim == nil {
			t.Errorf("%s: no simulation handler", typ)
		}
	}
}

func TestRegisterAll(t *testing.T) {
	reg := digi.NewRegistry()
	if err := RegisterAll(reg); err != nil {
		t.Fatal(err)
	}
	if got := len(reg.Types()); got != 20 {
		t.Errorf("registered %d types", got)
	}
}

func TestEveryKindSelfValidates(t *testing.T) {
	for _, k := range All() {
		d := k.Schema.New("inst")
		if err := k.Schema.Validate(d); err != nil {
			t.Errorf("%s: fresh instance invalid: %v", k.Type(), err)
		}
	}
}

// simHarness runs a kind's handlers directly with a deterministic Ctx,
// without the full runtime — unit-level behaviour checks.
type simHarness struct {
	rt  *digi.Runtime
	ctx *digi.Ctx
}

func newSimHarness(t *testing.T, k *digi.Kind, name string) (*simHarness, model.Doc) {
	t.Helper()
	reg := digi.NewRegistry()
	if err := reg.Register(k); err != nil {
		t.Fatal(err)
	}
	rt := &digi.Runtime{Store: model.NewStore(), Log: trace.NewLog(), Registry: reg}
	doc := k.Schema.New(name)
	if err := rt.Store.Create(doc); err != nil {
		t.Fatal(err)
	}
	ctx := digi.NewTestCtx(name, k.Type(), rt, rng.New(1, 0), context.Background())
	return &simHarness{rt: rt, ctx: ctx}, doc
}

func TestLampSimFollowsIntent(t *testing.T) {
	k := NewLamp()
	h, doc := newSimHarness(t, k, "L1")
	work := model.NewDraft(doc)
	work.SetIntent("power", "on")
	work.SetIntent("intensity", 0.6)
	if err := k.Sim(h.ctx, work, nil); err != nil {
		t.Fatal(err)
	}
	if work.GetString("power.status") != "on" {
		t.Error("power.status did not follow intent")
	}
	if v, _ := work.GetFloat("intensity.status"); v != 0.6 {
		t.Errorf("intensity.status = %v", v)
	}
	work.SetIntent("power", "off")
	if err := k.Sim(h.ctx, work, nil); err != nil {
		t.Fatal(err)
	}
	if v, _ := work.GetFloat("intensity.status"); v != 0 {
		t.Errorf("intensity.status after off = %v (Fig. 4: off forces 0)", v)
	}
	// Publish must be logged as a message on the digi's topic.
	msgs := 0
	for _, r := range h.rt.Log.Records() {
		if r.Kind == trace.KindMessage && r.Topic == "digibox/L1/status" {
			msgs++
		}
	}
	if msgs != 2 {
		t.Errorf("logged %d messages, want 2", msgs)
	}
}

func TestFanSpeedZeroWhenOff(t *testing.T) {
	k := NewFan()
	h, doc := newSimHarness(t, k, "F1")
	work := model.NewDraft(doc)
	work.SetIntent("power", "on")
	work.SetIntent("speed", int64(3))
	k.Sim(h.ctx, work, nil)
	if v, _ := work.GetInt("speed.status"); v != 3 {
		t.Errorf("speed.status = %d", v)
	}
	work.SetIntent("power", "off")
	k.Sim(h.ctx, work, nil)
	if v, _ := work.GetInt("speed.status"); v != 0 {
		t.Errorf("speed.status when off = %d", v)
	}
}

func TestHVACThermalDrift(t *testing.T) {
	k := NewHVAC()
	h, doc := newSimHarness(t, k, "H1")
	work := model.NewDraft(doc)
	work.SetIntent("mode", "heat")
	work.SetIntent("target_temp", 25.0)
	k.Sim(h.ctx, work, nil) // commit intent to status
	start, _ := work.GetFloat("current_temp")
	for i := 0; i < 10; i++ {
		if err := k.Loop(h.ctx, work); err != nil {
			t.Fatal(err)
		}
	}
	after, _ := work.GetFloat("current_temp")
	if after <= start {
		t.Errorf("heating did not raise temperature: %v -> %v", start, after)
	}
	// Cooling drives it back down.
	work.SetIntent("mode", "cool")
	work.SetIntent("target_temp", 16.0)
	k.Sim(h.ctx, work, nil)
	for i := 0; i < 10; i++ {
		k.Loop(h.ctx, work)
	}
	cooled, _ := work.GetFloat("current_temp")
	if cooled >= after {
		t.Errorf("cooling did not lower temperature: %v -> %v", after, cooled)
	}
}

func TestThermostatCalling(t *testing.T) {
	k := NewThermostat()
	h, doc := newSimHarness(t, k, "T1")
	work := model.NewDraft(doc)
	work.Set("temperature", 15.0)
	work.SetIntent("setpoint", 21.0)
	k.Sim(h.ctx, work, nil)
	if !work.GetBool("calling") {
		t.Error("cold room should call for heat")
	}
	work.Set("temperature", 23.0)
	k.Sim(h.ctx, work, nil)
	if work.GetBool("calling") {
		t.Error("warm room should not call for heat")
	}
}

func TestDoorLockActuationDelay(t *testing.T) {
	k := NewDoorLock()
	reg := digi.NewRegistry()
	reg.Register(k)
	rt := &digi.Runtime{Store: model.NewStore(), Log: trace.NewLog(), Registry: reg}
	doc := k.Schema.New("D1")
	doc.Set("meta.actuation_delay_ms", 50)
	rt.Store.Create(doc)
	ctx := digi.NewTestCtx("D1", "DoorLock", rt, rng.New(1, 0), context.Background())

	work := model.NewDraft(doc)
	work.SetIntent("locked", false)
	start := time.Now()
	if err := k.Sim(ctx, work, nil); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 50*time.Millisecond {
		t.Errorf("actuation took %v, want >= 50ms (simulated device latency, §6)", elapsed)
	}
	if v, _ := work.Status("locked"); v != false {
		t.Errorf("locked.status = %v", v)
	}
}

func TestCameraFramesOnlyWhenOn(t *testing.T) {
	k := NewCamera()
	h, doc := newSimHarness(t, k, "C1")
	work := model.NewDraft(doc)
	// Default power is on; frames accumulate.
	k.Sim(h.ctx, work, nil)
	k.Loop(h.ctx, work)
	n1, _ := work.GetInt("frames")
	if n1 <= 0 {
		t.Fatalf("frames = %d", n1)
	}
	work.SetIntent("power", "off")
	k.Sim(h.ctx, work, nil)
	if work.GetBool("motion") {
		t.Error("motion must clear when camera off")
	}
	k.Loop(h.ctx, work)
	n2, _ := work.GetInt("frames")
	if n2 != n1 {
		t.Errorf("frames advanced while off: %d -> %d", n1, n2)
	}
}

func TestSmartPlugWatts(t *testing.T) {
	k := NewSmartPlug()
	h, doc := newSimHarness(t, k, "P1")
	work := model.NewDraft(doc)
	work.SetIntent("power", "on")
	k.Sim(h.ctx, work, nil)
	if w, _ := work.GetFloat("watts"); w != 60 {
		t.Errorf("watts = %v, want default load 60", w)
	}
	work.SetIntent("power", "off")
	k.Sim(h.ctx, work, nil)
	if w, _ := work.GetFloat("watts"); w != 0 {
		t.Errorf("watts when off = %v", w)
	}
}

func TestSensorLoopsStayInBounds(t *testing.T) {
	cases := []struct {
		kind     *digi.Kind
		path     string
		min, max float64
	}{
		{NewTemperatureSensor(), "temperature", 18, 26},
		{NewHumiditySensor(), "humidity", 30, 70},
		{NewCO2Sensor(), "ppm", 380, 1600},
		{NewAirQuality(), "pm25", 2, 120},
		{NewNoiseSensor(), "db", 30, 95},
	}
	for _, c := range cases {
		h, doc := newSimHarness(t, c.kind, "S1")
		work := model.NewDraft(doc)
		for i := 0; i < 200; i++ {
			if err := c.kind.Loop(h.ctx, work); err != nil {
				t.Fatalf("%s: %v", c.kind.Type(), err)
			}
			v, ok := work.GetFloat(c.path)
			if !ok || v < c.min || v > c.max {
				t.Fatalf("%s: %s = %v out of [%v, %v]", c.kind.Type(), c.path, v, c.min, c.max)
			}
		}
	}
}

func TestCO2DerivedHighFlag(t *testing.T) {
	k := NewCO2Sensor()
	h, doc := newSimHarness(t, k, "S1")
	work := model.NewDraft(doc)
	work.Set("ppm", 1500.0)
	k.Sim(h.ctx, work, nil)
	if !work.GetBool("high") {
		t.Error("high flag not set at 1500ppm")
	}
	work.Set("ppm", 500.0)
	k.Sim(h.ctx, work, nil)
	if work.GetBool("high") {
		t.Error("high flag stuck at 500ppm")
	}
}

func TestAirQualityCategories(t *testing.T) {
	k := NewAirQuality()
	h, doc := newSimHarness(t, k, "A1")
	work := model.NewDraft(doc)
	for _, c := range []struct {
		pm   float64
		want string
	}{{5, "good"}, {20, "moderate"}, {80, "unhealthy"}} {
		work.Set("pm25", c.pm)
		k.Sim(h.ctx, work, nil)
		if got := work.GetString("aqi"); got != c.want {
			t.Errorf("pm25=%v: aqi=%q, want %q", c.pm, got, c.want)
		}
	}
}

func TestSmokeDetectorAlarmFollowsSmoke(t *testing.T) {
	k := NewSmokeDetector()
	h, doc := newSimHarness(t, k, "S1")
	work := model.NewDraft(doc)
	work.Set("smoke", true)
	k.Sim(h.ctx, work, nil)
	if !work.GetBool("alarm") {
		t.Error("alarm must follow smoke")
	}
	work.Set("smoke", false)
	k.Sim(h.ctx, work, nil)
	if work.GetBool("alarm") {
		t.Error("alarm must clear with smoke")
	}
}

func TestLeakSensorLatches(t *testing.T) {
	k := NewLeakSensor()
	reg := digi.NewRegistry()
	reg.Register(k)
	rt := &digi.Runtime{Store: model.NewStore(), Log: trace.NewLog(), Registry: reg}
	doc := k.Schema.New("W1")
	doc.Set("meta.leak_prob", 1.0) // force a leak on the first tick
	rt.Store.Create(doc)
	ctx := digi.NewTestCtx("W1", "LeakSensor", rt, rng.New(1, 0), context.Background())
	work := model.NewDraft(doc)
	k.Loop(ctx, work)
	if !work.GetBool("leak") {
		t.Fatal("leak not generated at prob 1")
	}
	// Latched: further loops never clear it.
	for i := 0; i < 50; i++ {
		k.Loop(ctx, work)
	}
	if !work.GetBool("leak") {
		t.Error("leak unlatched by loop")
	}
}

func TestGPSTrackerMovesOnlyWhenMoving(t *testing.T) {
	k := NewGPSTracker()
	h, doc := newSimHarness(t, k, "G1")
	work := model.NewDraft(doc)
	lat0, _ := work.GetFloat("lat")
	lon0, _ := work.GetFloat("lon")
	for i := 0; i < 10; i++ {
		k.Loop(h.ctx, work)
	}
	lat1, _ := work.GetFloat("lat")
	lon1, _ := work.GetFloat("lon")
	if lat1 != lat0 || lon1 != lon0 {
		t.Error("stationary tracker moved")
	}
	work.Set("moving", true)
	for i := 0; i < 10; i++ {
		k.Loop(h.ctx, work)
	}
	lat2, _ := work.GetFloat("lat")
	lon2, _ := work.GetFloat("lon")
	if lat2 == lat0 && lon2 == lon0 {
		t.Error("moving tracker did not move")
	}
	if v, _ := work.GetFloat("speed_kmh"); v <= 0 {
		t.Errorf("speed = %v while moving", v)
	}
}

func TestEnergyMeterAccumulates(t *testing.T) {
	k := NewEnergyMeter()
	h, doc := newSimHarness(t, k, "E1")
	work := model.NewDraft(doc)
	for i := 0; i < 20; i++ {
		k.Loop(h.ctx, work)
	}
	kwh, _ := work.GetFloat("kwh")
	if kwh <= 0 {
		t.Errorf("kwh = %v after 20 ticks", kwh)
	}
}

func TestCargoSensorShockLatches(t *testing.T) {
	k := NewCargoSensor()
	reg := digi.NewRegistry()
	reg.Register(k)
	rt := &digi.Runtime{Store: model.NewStore(), Log: trace.NewLog(), Registry: reg}
	doc := k.Schema.New("C1")
	doc.Set("meta.shock_prob", 1.0)
	rt.Store.Create(doc)
	ctx := digi.NewTestCtx("C1", "CargoSensor", rt, rng.New(1, 0), context.Background())
	work := model.NewDraft(doc)
	k.Loop(ctx, work)
	if !work.GetBool("shock") {
		t.Fatal("shock not generated")
	}
	for i := 0; i < 20; i++ {
		k.Loop(ctx, work)
	}
	if !work.GetBool("shock") {
		t.Error("shock unlatched")
	}
}

func TestOccupancyConfigurableProbability(t *testing.T) {
	k := NewOccupancy()
	reg := digi.NewRegistry()
	reg.Register(k)
	rt := &digi.Runtime{Store: model.NewStore(), Log: trace.NewLog(), Registry: reg}
	doc := k.Schema.New("O1")
	doc.Set("meta.trigger_prob", 0.0)
	rt.Store.Create(doc)
	ctx := digi.NewTestCtx("O1", "Occupancy", rt, rng.New(1, 0), context.Background())
	work := model.NewDraft(doc)
	for i := 0; i < 50; i++ {
		k.Loop(ctx, work)
		if work.GetBool("triggered") {
			t.Fatal("triggered at probability 0")
		}
	}
}

// statusFields are the fields each kind's Sim publishes.
var statusFields = map[string][]string{
	"Occupancy":         {"triggered"},
	"Underdesk":         {"triggered"},
	"TemperatureSensor": {"temperature"},
	"HumiditySensor":    {"humidity"},
	"CO2Sensor":         {"ppm", "high"},
	"SmokeDetector":     {"smoke", "alarm"},
	"WindowSensor":      {"open"},
	"AirQuality":        {"pm25", "aqi"},
	"NoiseSensor":       {"db", "loud"},
	"LeakSensor":        {"leak"},
	"Lamp":              {"power", "intensity"},
	"Fan":               {"power", "speed"},
	"HVAC":              {"mode", "target_temp", "current_temp"},
	"Thermostat":        {"setpoint", "temperature", "calling"},
	"DoorLock":          {"locked", "forced"},
	"Camera":            {"power", "motion", "frames"},
	"SmartPlug":         {"power", "watts"},
	"EnergyMeter":       {"watts", "kwh"},
	"GPSTracker":        {"lat", "lon", "speed_kmh", "moving"},
	"CargoSensor":       {"temperature", "humidity", "shock"},
}

// Every kind's status payload is json.Marshal of the map of its status
// fields, as they stand in the draft Sim ran on: over rounds of intents
// set, event generators fired and changes committed.
func TestStatusPayloadsMatchJSONMarshal(t *testing.T) {
	for _, k := range All() {
		fields, ok := statusFields[k.Type()]
		if !ok {
			t.Errorf("%s: no status fields listed", k.Type())
			continue
		}
		h, _ := newSimHarness(t, k, "inst")
		for round := 0; round < 6; round++ {
			doc, _, _ := h.rt.Store.View("inst")
			work := model.NewDraft(doc)
			if round%2 == 1 {
				setIntents(k.Schema, work, round)
			}
			if k.Loop != nil {
				if err := k.Loop(h.ctx, work); err != nil {
					t.Fatal(err)
				}
			}
			if err := k.Sim(h.ctx, work, nil); err != nil {
				t.Fatalf("%s round %d: %v", k.Type(), round, err)
			}
			m := map[string]any{}
			for _, f := range fields {
				if v, ok := work.Get(f); ok {
					m[f] = v
				}
			}
			want, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			recs := h.rt.Log.Records()
			if got := recs[len(recs)-1]; got.Kind != trace.KindMessage || got.Payload != string(want) {
				t.Errorf("%s round %d: published %s (%s), json.Marshal writes %s", k.Type(), round, got.Payload, got.Kind, want)
			}
			if _, err := h.rt.Store.Commit("inst", work.Changes()); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// setIntents writes every intent of the schema a value picked by round.
func setIntents(s *model.Schema, work *model.Draft, round int) {
	for name, f := range s.Fields {
		if f.Kind != model.KindIntent {
			continue
		}
		var v any
		switch {
		case len(f.Enum) > 0:
			v = f.Enum[round%len(f.Enum)]
		case f.ElemKind == model.KindFloat:
			v = 0.125 * float64(round)
		case f.ElemKind == model.KindInt:
			v = int64(round)
		case f.ElemKind == model.KindBool:
			v = round%4 == 1
		default:
			v = "x"
		}
		work.SetIntent(name, v)
	}
}
