package scene

import (
	"context"
	"testing"

	"repro/internal/device"
	"repro/internal/digi"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/trace"
)

func TestLibraryHas18DistinctScenes(t *testing.T) {
	kinds := All()
	if len(kinds) != 18 {
		t.Fatalf("library has %d scenes, want 18 (paper: '18 scenes')", len(kinds))
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		typ := k.Type()
		if seen[typ] {
			t.Errorf("duplicate scene %q", typ)
		}
		seen[typ] = true
		if !k.Schema.Scene {
			t.Errorf("%s: not marked as scene", typ)
		}
		if k.Sim == nil {
			t.Errorf("%s: no simulation handler", typ)
		}
		if k.Schema.Doc == "" {
			t.Errorf("%s: missing doc", typ)
		}
		d := k.Schema.New("x")
		if err := k.Schema.Validate(d); err != nil {
			t.Errorf("%s: fresh instance invalid: %v", typ, err)
		}
	}
}

func TestRegisterAllScenesAndDevicesCoexist(t *testing.T) {
	reg := digi.NewRegistry()
	if err := device.RegisterAll(reg); err != nil {
		t.Fatal(err)
	}
	if err := RegisterAll(reg); err != nil {
		t.Fatal(err)
	}
	if got := len(reg.Types()); got != 38 {
		t.Errorf("registry has %d types, want 38", got)
	}
}

// ctxFor builds a deterministic handler context backed by a real store
// holding the scene's model (so meta config lookups resolve).
func ctxFor(t *testing.T, k *digi.Kind, name string) (*digi.Ctx, model.Doc) {
	t.Helper()
	reg := digi.NewRegistry()
	reg.Register(k)
	rt := &digi.Runtime{Store: model.NewStore(), Log: trace.NewLog(), Registry: reg}
	doc := k.Schema.New(name)
	if err := rt.Store.Create(doc); err != nil {
		t.Fatal(err)
	}
	return digi.NewTestCtx(name, k.Type(), rt, rng.New(7, 0), context.Background()), doc
}

// mkAtts builds an Atts from (type, name) pairs using device schemas.
func mkAtts(kinds map[string]*digi.Kind, entries map[string][]string) digi.Atts {
	atts := digi.Atts{}
	for typ, names := range entries {
		atts[typ] = map[string]*model.Draft{}
		for _, n := range names {
			atts[typ][n] = model.NewDraft(kinds[typ].Schema.New(n))
		}
	}
	return atts
}

func deviceKinds() map[string]*digi.Kind {
	out := map[string]*digi.Kind{}
	for _, k := range device.All() {
		out[k.Type()] = k
	}
	return out
}

func TestRoomCoordinationFig5(t *testing.T) {
	k := NewRoom()
	c, doc := ctxFor(t, k, "MeetingRoom")
	atts := mkAtts(deviceKinds(), map[string][]string{
		"Occupancy": {"O1"},
		"Underdesk": {"D1", "D2"},
		"Lamp":      {"L1"},
	})
	// Desk sensors pre-triggered; presence=false must clear them and
	// the ceiling sensor (Fig. 5 consistency rule).
	atts["Underdesk"]["D1"].Set("triggered", true)
	atts["Occupancy"]["O1"].Set("triggered", true)
	work := model.NewDraft(doc)
	work.Set("human_presence", false)
	if err := k.Sim(c, work, atts); err != nil {
		t.Fatal(err)
	}
	if atts["Occupancy"]["O1"].GetBool("triggered") {
		t.Error("ceiling sensor triggered in empty room")
	}
	if atts["Underdesk"]["D1"].GetBool("triggered") {
		t.Error("desk sensor triggered in empty room")
	}
	if got, _ := atts["Lamp"]["L1"].Intent("power"); got != "off" {
		t.Errorf("lamp intent = %v in empty room", got)
	}

	work.Set("human_presence", true)
	if err := k.Sim(c, work, atts); err != nil {
		t.Fatal(err)
	}
	if !atts["Occupancy"]["O1"].GetBool("triggered") {
		t.Error("ceiling sensor not triggered with presence")
	}
	if got, _ := atts["Lamp"]["L1"].Intent("power"); got != "on" {
		t.Errorf("lamp intent = %v with presence", got)
	}
}

func TestMeetingRoomFillsDesks(t *testing.T) {
	k := NewMeetingRoom()
	c, doc := ctxFor(t, k, "MR")
	atts := mkAtts(deviceKinds(), map[string][]string{"Underdesk": {"D1", "D2"}})
	work := model.NewDraft(doc)
	work.Set("human_presence", true)
	work.Set("meeting", true)
	k.Sim(c, work, atts)
	for n, d := range atts["Underdesk"] {
		if !d.GetBool("triggered") {
			t.Errorf("desk %s empty during meeting", n)
		}
	}
}

func TestBuildingDistributesHumans(t *testing.T) {
	k := NewBuilding()
	c, doc := ctxFor(t, k, "ConfCenter")
	rooms := mkAtts(map[string]*digi.Kind{"Room": NewRoom()},
		map[string][]string{"Room": {"Kitchen", "MeetingRoom"}})
	work := model.NewDraft(doc)

	work.Set("num_human", 0)
	k.Sim(c, work, rooms)
	for n, r := range rooms["Room"] {
		if r.GetBool("human_presence") {
			t.Errorf("room %s occupied with 0 humans", n)
		}
	}
	work.Set("num_human", 1)
	k.Sim(c, work, rooms)
	occupied := 0
	for _, r := range rooms["Room"] {
		if r.GetBool("human_presence") {
			occupied++
		}
	}
	if occupied != 1 {
		t.Errorf("%d rooms occupied with 1 human", occupied)
	}
	work.Set("num_human", 5)
	k.Sim(c, work, rooms)
	for n, r := range rooms["Room"] {
		if !r.GetBool("human_presence") {
			t.Errorf("room %s empty with 5 humans", n)
		}
	}
}

func TestCampusScalesBuildings(t *testing.T) {
	k := NewCampus()
	c, doc := ctxFor(t, k, "Cal")
	atts := mkAtts(map[string]*digi.Kind{"Building": NewBuilding()},
		map[string][]string{"Building": {"B1", "B2"}})
	work := model.NewDraft(doc)
	work.Set("occupancy_frac", 0.5)
	k.Sim(c, work, atts)
	for n, b := range atts["Building"] {
		if v, _ := b.GetInt("num_human"); v != 5 {
			t.Errorf("building %s num_human = %d, want 5 (0.5 * 10)", n, v)
		}
	}
}

func TestHomeEveningLighting(t *testing.T) {
	k := NewHome()
	c, doc := ctxFor(t, k, "H")
	atts := mkAtts(deviceKinds(), map[string][]string{
		"Lamp": {"L1"}, "DoorLock": {"D1"}, "Occupancy": {"O1"},
	})
	work := model.NewDraft(doc)
	work.Set("occupants", 2)
	work.Set("evening", true)
	k.Sim(c, work, atts)
	if got, _ := atts["Lamp"]["L1"].Intent("power"); got != "on" {
		t.Errorf("lamp = %v on occupied evening", got)
	}
	if got, _ := atts["DoorLock"]["D1"].Intent("locked"); got != false {
		t.Errorf("door locked = %v while home", got)
	}
	work.Set("occupants", 0)
	k.Sim(c, work, atts)
	if got, _ := atts["Lamp"]["L1"].Intent("power"); got != "off" {
		t.Errorf("lamp = %v in empty home", got)
	}
	if got, _ := atts["DoorLock"]["D1"].Intent("locked"); got != true {
		t.Errorf("door locked = %v in empty home", got)
	}
}

func TestKitchenCooking(t *testing.T) {
	k := NewKitchen()
	c, doc := ctxFor(t, k, "K")
	atts := mkAtts(deviceKinds(), map[string][]string{
		"Fan": {"F1"}, "TemperatureSensor": {"T1"},
	})
	work := model.NewDraft(doc)
	work.Set("human_presence", true)
	work.Set("cooking", true)
	k.Sim(c, work, atts)
	if got, _ := atts["Fan"]["F1"].Intent("power"); got != "on" {
		t.Errorf("fan = %v while cooking", got)
	}
	if v, _ := atts["TemperatureSensor"]["T1"].GetFloat("temperature"); v < 30 {
		t.Errorf("temperature = %v while cooking", v)
	}
}

func TestOfficeCO2FollowsOccupants(t *testing.T) {
	k := NewOffice()
	c, doc := ctxFor(t, k, "O")
	atts := mkAtts(deviceKinds(), map[string][]string{"CO2Sensor": {"C1"}})
	work := model.NewDraft(doc)
	work.Set("occupants", 5)
	k.Sim(c, work, atts)
	if v, _ := atts["CO2Sensor"]["C1"].GetFloat("ppm"); v != 820 {
		t.Errorf("ppm = %v with 5 occupants, want 820", v)
	}
}

func TestRetailLocksWhenClosed(t *testing.T) {
	k := NewRetail()
	c, doc := ctxFor(t, k, "Shop")
	atts := mkAtts(deviceKinds(), map[string][]string{
		"DoorLock": {"D1"}, "NoiseSensor": {"N1"},
	})
	work := model.NewDraft(doc)
	work.Set("open", false)
	work.Set("customers", 0)
	k.Sim(c, work, atts)
	if got, _ := atts["DoorLock"]["D1"].Intent("locked"); got != true {
		t.Errorf("closed shop unlocked: %v", got)
	}
	work.Set("open", true)
	work.Set("customers", 10)
	k.Sim(c, work, atts)
	if got, _ := atts["DoorLock"]["D1"].Intent("locked"); got != false {
		t.Errorf("open shop locked: %v", got)
	}
	if v, _ := atts["NoiseSensor"]["N1"].GetFloat("db"); v != 55 {
		t.Errorf("noise = %v with 10 customers, want 55", v)
	}
}

func TestWarehouseDockDoors(t *testing.T) {
	k := NewWarehouse()
	c, doc := ctxFor(t, k, "W")
	atts := mkAtts(deviceKinds(), map[string][]string{"WindowSensor": {"Dock1"}})
	work := model.NewDraft(doc)
	work.Set("active_shipments", 3)
	k.Sim(c, work, atts)
	if !atts["WindowSensor"]["Dock1"].GetBool("open") {
		t.Error("dock closed during shipments")
	}
	work.Set("active_shipments", 0)
	k.Sim(c, work, atts)
	if atts["WindowSensor"]["Dock1"].GetBool("open") {
		t.Error("dock open with no shipments")
	}
}

func TestFactoryScalesPower(t *testing.T) {
	k := NewFactory()
	c, doc := ctxFor(t, k, "F")
	atts := mkAtts(deviceKinds(), map[string][]string{"EnergyMeter": {"E1"}})
	work := model.NewDraft(doc)
	work.Set("production_rate", 1.0)
	k.Sim(c, work, atts)
	if v, _ := atts["EnergyMeter"]["E1"].GetFloat("watts"); v != 10500 {
		t.Errorf("watts = %v at full rate, want 10500", v)
	}
}

func TestGreenhouseVentsWhenHot(t *testing.T) {
	k := NewGreenhouse()
	c, doc := ctxFor(t, k, "G")
	atts := mkAtts(deviceKinds(), map[string][]string{"Fan": {"F1"}})
	work := model.NewDraft(doc)
	work.Set("temp_c", 31.0)
	k.Sim(c, work, atts)
	if got, _ := atts["Fan"]["F1"].Intent("power"); got != "on" {
		t.Errorf("fan = %v at 31C", got)
	}
	work.Set("temp_c", 20.0)
	k.Sim(c, work, atts)
	if got, _ := atts["Fan"]["F1"].Intent("power"); got != "off" {
		t.Errorf("fan = %v at 20C", got)
	}
}

func TestParkingFillsSpots(t *testing.T) {
	k := NewParking()
	c, doc := ctxFor(t, k, "P")
	atts := mkAtts(deviceKinds(), map[string][]string{
		"Occupancy": {"S1", "S2", "S3", "S4"},
	})
	work := model.NewDraft(doc)
	work.Set("fill_frac", 0.5)
	k.Sim(c, work, atts)
	filled := 0
	for _, s := range atts["Occupancy"] {
		if s.GetBool("triggered") {
			filled++
		}
	}
	if filled != 2 {
		t.Errorf("filled = %d of 4 at 0.5", filled)
	}
}

func TestHospitalSecureDoors(t *testing.T) {
	k := NewHospital()
	c, doc := ctxFor(t, k, "Ward")
	atts := mkAtts(deviceKinds(), map[string][]string{"DoorLock": {"D1"}})
	work := model.NewDraft(doc)
	work.Set("secure", true)
	k.Sim(c, work, atts)
	if got, _ := atts["DoorLock"]["D1"].Intent("locked"); got != true {
		t.Errorf("secure ward unlocked: %v", got)
	}
}

func TestTruckStagesAndCargo(t *testing.T) {
	k := NewTruck()
	c, doc := ctxFor(t, k, "T1")
	atts := mkAtts(deviceKinds(), map[string][]string{
		"GPSTracker": {"G1"}, "CargoSensor": {"C1"},
	})
	work := model.NewDraft(doc)
	work.Set("stage", "transit")
	k.Sim(c, work, atts)
	if !atts["GPSTracker"]["G1"].GetBool("moving") {
		t.Error("tracker parked during transit")
	}
	// Reefer failure warms cargo.
	work.Set("reefer_on", false)
	before, _ := atts["CargoSensor"]["C1"].GetFloat("temperature")
	k.Sim(c, work, atts)
	after, _ := atts["CargoSensor"]["C1"].GetFloat("temperature")
	if after <= before {
		t.Errorf("cargo did not warm with reefer off: %v -> %v", before, after)
	}
}

func TestColdChainBreachDetection(t *testing.T) {
	k := NewColdChain()
	c, doc := ctxFor(t, k, "CC")
	atts := mkAtts(deviceKinds(), map[string][]string{"CargoSensor": {"C1", "C2"}})
	work := model.NewDraft(doc)
	k.Sim(c, work, atts)
	if work.GetBool("breach") {
		t.Error("breach with cold cargo")
	}
	atts["CargoSensor"]["C2"].Set("temperature", 15.0)
	k.Sim(c, work, atts)
	if !work.GetBool("breach") {
		t.Error("no breach at 15C cargo")
	}
}

func TestSupplyChainDispatchAndCount(t *testing.T) {
	k := NewSupplyChain()
	c, doc := ctxFor(t, k, "SC")
	truckKind := NewTruck()
	atts := digi.Atts{"Truck": {
		"T1": model.NewDraft(truckKind.Schema.New("T1")),
		"T2": model.NewDraft(truckKind.Schema.New("T2")),
	}}
	atts["Truck"]["T2"].Set("stage", "delivered")
	work := model.NewDraft(doc)
	work.Set("dispatch", true)
	k.Sim(c, work, atts)
	if got := atts["Truck"]["T1"].GetString("stage"); got != "transit" {
		t.Errorf("T1 stage = %q after dispatch", got)
	}
	if v, _ := work.GetInt("delivered"); v != 1 {
		t.Errorf("delivered = %d", v)
	}
}

func TestStreetTrafficEffects(t *testing.T) {
	k := NewStreet()
	c, doc := ctxFor(t, k, "Main")
	atts := mkAtts(deviceKinds(), map[string][]string{
		"NoiseSensor": {"N1"}, "AirQuality": {"A1"}, "GPSTracker": {"G1"},
	})
	work := model.NewDraft(doc)
	work.Set("traffic", 1.0)
	k.Sim(c, work, atts)
	if v, _ := atts["NoiseSensor"]["N1"].GetFloat("db"); v != 85 {
		t.Errorf("db = %v at full traffic", v)
	}
	if v, _ := atts["AirQuality"]["A1"].GetFloat("pm25"); v != 65 {
		t.Errorf("pm25 = %v at full traffic", v)
	}
	if !atts["GPSTracker"]["G1"].GetBool("moving") {
		t.Error("tracker parked in traffic")
	}
	work.Set("traffic", 0.0)
	k.Sim(c, work, atts)
	if atts["GPSTracker"]["G1"].GetBool("moving") {
		t.Error("tracker moving with no traffic")
	}
}

func TestCitySetsStreetTraffic(t *testing.T) {
	k := NewCity()
	c, doc := ctxFor(t, k, "SF")
	atts := digi.Atts{"Street": {"Main": model.NewDraft(NewStreet().Schema.New("Main"))}}
	work := model.NewDraft(doc)
	work.Set("phase", "rush")
	k.Sim(c, work, atts)
	if v, _ := atts["Street"]["Main"].GetFloat("traffic"); v != 0.9 {
		t.Errorf("traffic = %v during rush", v)
	}
	work.Set("phase", "night")
	k.Sim(c, work, atts)
	if v, _ := atts["Street"]["Main"].GetFloat("traffic"); v != 0.1 {
		t.Errorf("traffic = %v at night", v)
	}
}

func TestCityPhaseAdvances(t *testing.T) {
	k := NewCity()
	c, doc := ctxFor(t, k, "SF")
	work := model.NewDraft(doc)
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		k.Loop(c, work)
		seen[work.GetString("phase")] = true
	}
	if len(seen) != 4 {
		t.Errorf("phases visited = %v, want all 4", seen)
	}
}

func TestTruckLoopAdvancesStages(t *testing.T) {
	k := NewTruck()
	c, doc := ctxFor(t, k, "T1")
	work := model.NewDraft(doc)
	for i := 0; i < 200 && work.GetString("stage") != "delivered"; i++ {
		k.Loop(c, work)
	}
	if got := work.GetString("stage"); got != "delivered" {
		t.Errorf("stage = %q after 200 ticks", got)
	}
}
