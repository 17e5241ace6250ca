package scene

import (
	"repro/internal/digi"
	"repro/internal/model"
)

// NewRetail builds a retail-store scene: customer count drives
// occupancy, noise, and camera power; doors unlock while open.
func NewRetail() *digi.Kind {
	return &digi.Kind{
		Schema: &model.Schema{
			Type: "Retail", Version: "v1", Scene: true,
			Doc: "Retail store: customers drive occupancy, noise, locks.",
			Fields: map[string]model.FieldSpec{
				"open":      {Kind: model.KindBool, Default: true},
				"customers": {Kind: model.KindInt, Default: int64(0), Min: model.Bound(0)},
			},
		},
		DefaultInterval: sceneTick,
		Loop: func(c *digi.Ctx, work *model.Draft) error {
			open := c.Rand.Float64() < c.ConfigFloat("open_frac", 0.8)
			work.Set("open", open)
			if open {
				work.Set("customers", int64(c.Rand.Intn(int(c.ConfigInt("max_customers", 20))+1)))
			} else {
				work.Set("customers", int64(0))
			}
			return nil
		},
		Sim: func(c *digi.Ctx, work *model.Draft, atts digi.Atts) error {
			open := work.GetBool("open")
			customers, _ := work.GetInt("customers")
			for _, occ := range atts.Get("Occupancy") {
				occ.Set("triggered", customers > 0)
			}
			for _, noise := range atts.Get("NoiseSensor") {
				noise.Set("db", 35.0+float64(customers)*2)
			}
			for _, lock := range atts.Get("DoorLock") {
				lock.SetIntent("locked", !open)
			}
			for _, cam := range atts.Get("Camera") {
				cam.SetIntent("power", "on") // cameras always on in retail
			}
			return nil
		},
	}
}

// NewWarehouse builds a warehouse scene: shipment activity drives
// forklift noise and dock-door state; cargo sensors live on pallets.
func NewWarehouse() *digi.Kind {
	return &digi.Kind{
		Schema: &model.Schema{
			Type: "Warehouse", Version: "v1", Scene: true,
			Doc: "Warehouse: shipment activity drives noise and dock doors.",
			Fields: map[string]model.FieldSpec{
				"active_shipments": {Kind: model.KindInt, Default: int64(0), Min: model.Bound(0)},
			},
		},
		DefaultInterval: sceneTick,
		Loop: func(c *digi.Ctx, work *model.Draft) error {
			work.Set("active_shipments", int64(c.Rand.Intn(int(c.ConfigInt("max_shipments", 5))+1)))
			return nil
		},
		Sim: func(c *digi.Ctx, work *model.Draft, atts digi.Atts) error {
			n, _ := work.GetInt("active_shipments")
			busy := n > 0
			for _, occ := range atts.Get("Occupancy") {
				occ.Set("triggered", busy)
			}
			for _, noise := range atts.Get("NoiseSensor") {
				noise.Set("db", 40.0+float64(n)*8)
			}
			for _, window := range atts.Get("WindowSensor") {
				// Dock doors modelled as window contacts: open while
				// shipments are moving.
				window.Set("open", busy)
			}
			return nil
		},
	}
}

// NewFactory builds a factory scene: the production rate scales power
// draw on energy meters and noise on the floor; smoke probability
// rises with the rate (§1 industrial automation).
func NewFactory() *digi.Kind {
	return &digi.Kind{
		Schema: &model.Schema{
			Type: "Factory", Version: "v1", Scene: true,
			Doc: "Factory: production rate scales power draw and noise.",
			Fields: map[string]model.FieldSpec{
				"production_rate": {Kind: model.KindFloat, Default: 0.0,
					Min: model.Bound(0), Max: model.Bound(1)},
			},
		},
		DefaultInterval: sceneTick,
		Loop: func(c *digi.Ctx, work *model.Draft) error {
			work.Set("production_rate", float64(c.Rand.Intn(101))/100)
			return nil
		},
		Sim: func(c *digi.Ctx, work *model.Draft, atts digi.Atts) error {
			rate, _ := work.GetFloat("production_rate")
			for _, meter := range atts.Get("EnergyMeter") {
				meter.Set("watts", 500.0+rate*float64(c.ConfigInt("full_load_watts", 10000)))
			}
			for _, noise := range atts.Get("NoiseSensor") {
				noise.Set("db", 45.0+rate*40)
			}
			return nil
		},
	}
}

// NewGreenhouse builds a greenhouse scene: a day/night cycle drives
// temperature and humidity bands, and fans vent when hot.
func NewGreenhouse() *digi.Kind {
	return &digi.Kind{
		Schema: &model.Schema{
			Type: "Greenhouse", Version: "v1", Scene: true,
			Doc: "Greenhouse: day/night cycle drives climate; fans vent heat.",
			Fields: map[string]model.FieldSpec{
				"daylight": {Kind: model.KindBool, Default: true},
				"temp_c":   {Kind: model.KindFloat, Default: 22.0},
			},
		},
		DefaultInterval: sceneTick,
		Loop: func(c *digi.Ctx, work *model.Draft) error {
			// Toggle daylight occasionally; temperature tracks it.
			day := work.GetBool("daylight")
			if c.Rand.Float64() < c.ConfigFloat("cycle_prob", 0.1) {
				day = !day
				work.Set("daylight", day)
			}
			t, _ := work.GetFloat("temp_c")
			if day && t < 32 {
				t += 1.5
			} else if !day && t > 12 {
				t -= 1.5
			}
			work.Set("temp_c", t)
			return nil
		},
		Sim: func(c *digi.Ctx, work *model.Draft, atts digi.Atts) error {
			t, _ := work.GetFloat("temp_c")
			for _, temp := range atts.Get("TemperatureSensor") {
				temp.Set("temperature", t)
			}
			for _, hum := range atts.Get("HumiditySensor") {
				if work.GetBool("daylight") {
					hum.Set("humidity", 55.0)
				} else {
					hum.Set("humidity", 75.0)
				}
			}
			hot := t >= c.ConfigFloat("vent_temp", 28)
			for _, fan := range atts.Get("Fan") {
				if hot {
					fan.SetIntent("power", "on")
					fan.SetIntent("speed", int64(2))
				} else {
					fan.SetIntent("power", "off")
				}
			}
			return nil
		},
	}
}

// NewParking builds a parking-lot scene: a fill fraction decides how
// many of the attached spot sensors (Occupancy) are triggered.
func NewParking() *digi.Kind {
	return &digi.Kind{
		Schema: &model.Schema{
			Type: "Parking", Version: "v1", Scene: true,
			Doc: "Parking lot: fill fraction drives per-spot sensors.",
			Fields: map[string]model.FieldSpec{
				"fill_frac": {Kind: model.KindFloat, Default: 0.0,
					Min: model.Bound(0), Max: model.Bound(1)},
			},
		},
		DefaultInterval: sceneTick,
		Loop: func(c *digi.Ctx, work *model.Draft) error {
			work.Set("fill_frac", float64(c.Rand.Intn(101))/100)
			return nil
		},
		Sim: func(c *digi.Ctx, work *model.Draft, atts digi.Atts) error {
			frac, _ := work.GetFloat("fill_frac")
			names := atts.Names("Occupancy")
			spots := atts.Get("Occupancy")
			filled := int(frac * float64(len(names)))
			for i, name := range names {
				spots[name].Set("triggered", i < filled)
			}
			return nil
		},
	}
}

// NewHospital builds a hospital-ward scene: patient count drives room
// occupancy; secure wards keep door locks engaged; nurse calls are
// rare events surfaced on the model.
func NewHospital() *digi.Kind {
	return &digi.Kind{
		Schema: &model.Schema{
			Type: "Hospital", Version: "v1", Scene: true,
			Doc: "Hospital ward: patients, secure doors, nurse calls.",
			Fields: map[string]model.FieldSpec{
				"patients":   {Kind: model.KindInt, Default: int64(0), Min: model.Bound(0)},
				"nurse_call": {Kind: model.KindBool, Default: false},
				"secure":     {Kind: model.KindBool, Default: true},
			},
		},
		DefaultInterval: sceneTick,
		Loop: func(c *digi.Ctx, work *model.Draft) error {
			work.Set("patients", int64(c.Rand.Intn(int(c.ConfigInt("beds", 6))+1)))
			work.Set("nurse_call", c.Rand.Float64() < c.ConfigFloat("call_prob", 0.05))
			return nil
		},
		Sim: func(c *digi.Ctx, work *model.Draft, atts digi.Atts) error {
			patients, _ := work.GetInt("patients")
			for _, occ := range atts.Get("Occupancy") {
				occ.Set("triggered", patients > 0)
			}
			secure := work.GetBool("secure")
			for _, lock := range atts.Get("DoorLock") {
				lock.SetIntent("locked", secure)
			}
			for _, cam := range atts.Get("Camera") {
				cam.SetIntent("power", "on")
			}
			return nil
		},
	}
}
