package scene

import (
	"repro/internal/digi"
	"repro/internal/model"
)

// NewTruck builds a truck scene for supply-chain prototyping: the
// truck moves through stages (loading → transit → delivered); its GPS
// trackers move during transit, and its cargo sensors warm up whenever
// the reefer (refrigeration unit) is off.
func NewTruck() *digi.Kind {
	return &digi.Kind{
		Schema: &model.Schema{
			Type: "Truck", Version: "v1", Scene: true,
			Doc: "Truck: stage machine driving GPS movement and cargo temps.",
			Fields: map[string]model.FieldSpec{
				"stage": {Kind: model.KindString, Default: "loading",
					Enum: []string{"loading", "transit", "delivered"}},
				"reefer_on": {Kind: model.KindBool, Default: true},
			},
		},
		DefaultInterval: sceneTick,
		Loop: func(c *digi.Ctx, work *model.Draft) error {
			// Advance the stage machine with some probability per tick.
			if c.Rand.Float64() < c.ConfigFloat("advance_prob", 0.2) {
				switch work.GetString("stage") {
				case "loading":
					work.Set("stage", "transit")
				case "transit":
					work.Set("stage", "delivered")
				}
			}
			// Reefer faults occasionally (cold-chain failure injection).
			if work.GetBool("reefer_on") && c.Rand.Float64() < c.ConfigFloat("reefer_fault_prob", 0.02) {
				work.Set("reefer_on", false)
			}
			return nil
		},
		Sim: func(c *digi.Ctx, work *model.Draft, atts digi.Atts) error {
			inTransit := work.GetString("stage") == "transit"
			for _, gps := range atts.Get("GPSTracker") {
				gps.Set("moving", inTransit)
			}
			reefer := work.GetBool("reefer_on")
			for _, cargo := range atts.Get("CargoSensor") {
				if !reefer {
					t, _ := cargo.GetFloat("temperature")
					if t < 20 {
						cargo.Set("temperature", t+2)
					}
				}
			}
			return nil
		},
	}
}

// NewColdChain builds a cold-chain scene coordinating several trucks:
// it audits the cargo sensors of attached trucks and raises breach
// when any cargo exceeds the temperature ceiling (§5 supply chain).
func NewColdChain() *digi.Kind {
	return &digi.Kind{
		Schema: &model.Schema{
			Type: "ColdChain", Version: "v1", Scene: true,
			Doc: "Cold chain: audits truck cargo temperatures for breaches.",
			Fields: map[string]model.FieldSpec{
				"max_temp": {Kind: model.KindFloat, Default: 8.0},
				"breach":   {Kind: model.KindBool, Default: false},
			},
		},
		Sim: func(c *digi.Ctx, work *model.Draft, atts digi.Atts) error {
			limit, _ := work.GetFloat("max_temp")
			breach := false
			for _, cargo := range atts.Get("CargoSensor") {
				if t, ok := cargo.GetFloat("temperature"); ok && t > limit {
					breach = true
				}
			}
			work.Set("breach", breach)
			return nil
		},
	}
}

// NewSupplyChain builds the top-level supply-chain scene: it releases
// shipments by moving attached trucks out of the loading stage, and
// aggregates delivery progress.
func NewSupplyChain() *digi.Kind {
	return &digi.Kind{
		Schema: &model.Schema{
			Type: "SupplyChain", Version: "v1", Scene: true,
			Doc: "Supply chain: dispatches trucks and tracks deliveries.",
			Fields: map[string]model.FieldSpec{
				"dispatch":  {Kind: model.KindBool, Default: false},
				"delivered": {Kind: model.KindInt, Default: int64(0), Min: model.Bound(0)},
			},
		},
		DefaultInterval: sceneTick,
		Loop: func(c *digi.Ctx, work *model.Draft) error {
			work.Set("dispatch", c.Rand.Float64() < c.ConfigFloat("dispatch_prob", 0.5))
			return nil
		},
		Sim: func(c *digi.Ctx, work *model.Draft, atts digi.Atts) error {
			delivered := int64(0)
			for _, truck := range atts.Get("Truck") {
				if work.GetBool("dispatch") && truck.GetString("stage") == "loading" {
					truck.Set("stage", "transit")
				}
				if truck.GetString("stage") == "delivered" {
					delivered++
				}
			}
			work.Set("delivered", delivered)
			return nil
		},
	}
}

// NewStreet builds an urban street scene: traffic level drives noise
// and air quality on the attached sensors, and mobile GPS trackers
// move while traffic flows (§5 urban sensing).
func NewStreet() *digi.Kind {
	return &digi.Kind{
		Schema: &model.Schema{
			Type: "Street", Version: "v1", Scene: true,
			Doc: "Street: traffic drives noise, PM2.5, and tracker movement.",
			Fields: map[string]model.FieldSpec{
				"traffic": {Kind: model.KindFloat, Default: 0.2,
					Min: model.Bound(0), Max: model.Bound(1)},
			},
		},
		DefaultInterval: sceneTick,
		Loop: func(c *digi.Ctx, work *model.Draft) error {
			work.Set("traffic", float64(c.Rand.Intn(101))/100)
			return nil
		},
		Sim: func(c *digi.Ctx, work *model.Draft, atts digi.Atts) error {
			traffic, _ := work.GetFloat("traffic")
			for _, noise := range atts.Get("NoiseSensor") {
				noise.Set("db", 40.0+traffic*45)
			}
			for _, aq := range atts.Get("AirQuality") {
				aq.Set("pm25", 5.0+traffic*60)
			}
			for _, gps := range atts.Get("GPSTracker") {
				gps.Set("moving", traffic > 0.1)
			}
			return nil
		},
	}
}

// NewCity builds the city scene: a day-phase machine (morning → rush →
// evening → night) sets the traffic level of each attached street.
func NewCity() *digi.Kind {
	phases := []string{"morning", "rush", "evening", "night"}
	traffic := map[string]float64{"morning": 0.4, "rush": 0.9, "evening": 0.5, "night": 0.1}
	return &digi.Kind{
		Schema: &model.Schema{
			Type: "City", Version: "v1", Scene: true,
			Doc: "City: day-phase machine setting street traffic levels.",
			Fields: map[string]model.FieldSpec{
				"phase": {Kind: model.KindString, Default: "morning",
					Enum: phases},
			},
		},
		DefaultInterval: sceneTick,
		Loop: func(c *digi.Ctx, work *model.Draft) error {
			cur := work.GetString("phase")
			for i, p := range phases {
				if p == cur {
					if c.Rand.Float64() < c.ConfigFloat("advance_prob", 0.3) {
						work.Set("phase", phases[(i+1)%len(phases)])
					}
					break
				}
			}
			return nil
		},
		Sim: func(c *digi.Ctx, work *model.Draft, atts digi.Atts) error {
			level := traffic[work.GetString("phase")]
			for _, street := range atts.Get("Street") {
				street.Set("traffic", level)
			}
			return nil
		},
	}
}
