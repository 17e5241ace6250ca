package device

import (
	"repro/internal/digi"
	"repro/internal/model"
)

// NewEnergyMeter builds a cumulative energy meter: instantaneous draw
// random-walks and kWh accumulates per tick (tick assumed to cover
// interval_ms of wall time).
func NewEnergyMeter() *digi.Kind {
	return &digi.Kind{
		Schema: &model.Schema{
			Type: "EnergyMeter", Version: "v1",
			Doc: "Cumulative energy meter (kWh) with instantaneous draw (W).",
			Fields: map[string]model.FieldSpec{
				"watts": {Kind: model.KindFloat, Default: 200.0, Min: model.Bound(0)},
				"kwh":   {Kind: model.KindFloat, Default: 0.0, Min: model.Bound(0)},
			},
		},
		DefaultInterval: defaultTick,
		Loop: func(c *digi.Ctx, work *model.Draft) error {
			w, _ := work.GetFloat("watts")
			w = walk(c, w,
				c.ConfigFloat("watts_min", 50),
				c.ConfigFloat("watts_max", 2000),
				c.ConfigFloat("watts_step", 80))
			work.Set("watts", w)
			// Integrate: one tick of draw. The simulated hour scale is
			// configurable so benchmarks accumulate visibly.
			hours := c.ConfigFloat("hours_per_tick", 0.001)
			kwh, _ := work.GetFloat("kwh")
			work.Set("kwh", float64(int((kwh+w*hours/1000)*1e6))/1e6)
			return nil
		},
		Sim: func(c *digi.Ctx, work *model.Draft, _ digi.Atts) error {
			return c.PublishFields(work, "watts", "kwh")
		},
	}
}

// NewGPSTracker builds a mobile GPS tracker: while "moving", position
// advances along a heading with speed_kmh; urban-sensing scenes
// re-attach trackers between street scenes as they move (§5).
func NewGPSTracker() *digi.Kind {
	return &digi.Kind{
		Schema: &model.Schema{
			Type: "GPSTracker", Version: "v1",
			Doc: "Mobile GPS tracker (lat/lon in degrees, speed in km/h).",
			Fields: map[string]model.FieldSpec{
				"lat":       {Kind: model.KindFloat, Default: 37.8715}, // Berkeley
				"lon":       {Kind: model.KindFloat, Default: -122.273},
				"speed_kmh": {Kind: model.KindFloat, Default: 0.0, Min: model.Bound(0)},
				"moving":    {Kind: model.KindBool, Default: false},
			},
		},
		DefaultInterval: defaultTick,
		Loop: func(c *digi.Ctx, work *model.Draft) error {
			if !work.GetBool("moving") {
				work.Set("speed_kmh", 0.0)
				return nil
			}
			speed := walk(c, c.ConfigFloat("cruise_kmh", 30), 5,
				c.ConfigFloat("max_kmh", 60), 5)
			work.Set("speed_kmh", speed)
			// Degrees per tick at this speed; 1 deg latitude ~111 km.
			tickH := c.ConfigFloat("hours_per_tick", 0.01)
			delta := speed * tickH / 111.0
			lat, _ := work.GetFloat("lat")
			lon, _ := work.GetFloat("lon")
			// Heading jitters around the configured bearing.
			if c.Rand.Intn(2) == 0 {
				lat += delta
			} else {
				lon += delta
			}
			work.Set("lat", float64(int(lat*100000))/100000)
			work.Set("lon", float64(int(lon*100000))/100000)
			return nil
		},
		Sim: func(c *digi.Ctx, work *model.Draft, _ digi.Atts) error {
			return c.PublishFields(work, "lat", "lon", "speed_kmh", "moving")
		},
	}
}

// NewCargoSensor builds a supply-chain cargo condition sensor:
// temperature and humidity of the cargo hold plus a latched shock
// flag, the signals a logistics application audits (§1, §5).
func NewCargoSensor() *digi.Kind {
	return &digi.Kind{
		Schema: &model.Schema{
			Type: "CargoSensor", Version: "v1",
			Doc: "Cargo condition sensor: temperature, humidity, shock.",
			Fields: map[string]model.FieldSpec{
				"temperature": {Kind: model.KindFloat, Default: 4.0},
				"humidity":    {Kind: model.KindFloat, Default: 60.0, Min: model.Bound(0), Max: model.Bound(100)},
				"shock":       {Kind: model.KindBool, Default: false},
			},
		},
		DefaultInterval: defaultTick,
		Loop: func(c *digi.Ctx, work *model.Draft) error {
			t, _ := work.GetFloat("temperature")
			work.Set("temperature", walk(c, t,
				c.ConfigFloat("temp_min", 2),
				c.ConfigFloat("temp_max", 8),
				c.ConfigFloat("temp_step", 0.3)))
			h, _ := work.GetFloat("humidity")
			work.Set("humidity", walk(c, h, 40, 80, 2))
			if !work.GetBool("shock") && rare(c, c.ConfigFloat("shock_prob", 0.01)) {
				work.Set("shock", true)
			}
			return nil
		},
		Sim: func(c *digi.Ctx, work *model.Draft, _ digi.Atts) error {
			return c.PublishFields(work, "temperature", "humidity", "shock")
		},
	}
}
