package device

import (
	"repro/internal/digi"
	"repro/internal/model"
)

// NewOccupancy builds the room-level mock occupancy sensor of Fig. 4:
// the event generator flips "triggered" at random; the simulation
// handler publishes the status. Config: trigger_prob (default 0.5).
func NewOccupancy() *digi.Kind {
	return occupancyLike("Occupancy", "Room-level occupancy (motion) sensor.")
}

// NewUnderdesk builds the desk-level occupancy sensor type that the
// Fig. 5 room scene coordinates against the ceiling sensor.
func NewUnderdesk() *digi.Kind {
	return occupancyLike("Underdesk", "Desk-level occupancy sensor.")
}

func occupancyLike(typ, doc string) *digi.Kind {
	return &digi.Kind{
		Schema: &model.Schema{
			Type: typ, Version: "v1", Doc: doc,
			Fields: map[string]model.FieldSpec{
				"triggered": {Kind: model.KindBool, Default: false,
					Doc: "whether motion is currently detected"},
			},
		},
		DefaultInterval: defaultTick,
		Loop: func(c *digi.Ctx, work *model.Draft) error {
			prob := c.ConfigFloat("trigger_prob", 0.5)
			work.Set("triggered", rare(c, prob))
			return nil
		},
		Sim: func(c *digi.Ctx, work *model.Draft, _ digi.Atts) error {
			return c.PublishFields(work, "triggered")
		},
	}
}

// NewTemperatureSensor builds an ambient temperature sensor whose
// reading random-walks inside a configurable band. Config: temp_min
// (default 18), temp_max (default 26), temp_step (default 0.3).
func NewTemperatureSensor() *digi.Kind {
	return &digi.Kind{
		Schema: &model.Schema{
			Type: "TemperatureSensor", Version: "v1",
			Doc: "Ambient temperature sensor (degrees Celsius).",
			Fields: map[string]model.FieldSpec{
				"temperature": {Kind: model.KindFloat, Default: 21.0,
					Doc: "current reading in Celsius"},
			},
		},
		DefaultInterval: defaultTick,
		Loop: func(c *digi.Ctx, work *model.Draft) error {
			cur, _ := work.GetFloat("temperature")
			work.Set("temperature", walk(c, cur,
				c.ConfigFloat("temp_min", 18),
				c.ConfigFloat("temp_max", 26),
				c.ConfigFloat("temp_step", 0.3)))
			return nil
		},
		Sim: func(c *digi.Ctx, work *model.Draft, _ digi.Atts) error {
			return c.PublishFields(work, "temperature")
		},
	}
}

// NewHumiditySensor builds a relative-humidity sensor (percent).
// Config: hum_min (30), hum_max (70), hum_step (1).
func NewHumiditySensor() *digi.Kind {
	return &digi.Kind{
		Schema: &model.Schema{
			Type: "HumiditySensor", Version: "v1",
			Doc: "Relative humidity sensor (percent).",
			Fields: map[string]model.FieldSpec{
				"humidity": {Kind: model.KindFloat, Default: 45.0,
					Min: model.Bound(0), Max: model.Bound(100)},
			},
		},
		DefaultInterval: defaultTick,
		Loop: func(c *digi.Ctx, work *model.Draft) error {
			cur, _ := work.GetFloat("humidity")
			work.Set("humidity", walk(c, cur,
				c.ConfigFloat("hum_min", 30),
				c.ConfigFloat("hum_max", 70),
				c.ConfigFloat("hum_step", 1)))
			return nil
		},
		Sim: func(c *digi.Ctx, work *model.Draft, _ digi.Atts) error {
			return c.PublishFields(work, "humidity")
		},
	}
}

// NewCO2Sensor builds a CO2 concentration sensor (ppm). The derived
// "high" flag trips above co2_alert (default 1000 ppm).
func NewCO2Sensor() *digi.Kind {
	return &digi.Kind{
		Schema: &model.Schema{
			Type: "CO2Sensor", Version: "v1",
			Doc: "CO2 concentration sensor (ppm) with a high-level alert flag.",
			Fields: map[string]model.FieldSpec{
				"ppm":  {Kind: model.KindFloat, Default: 420.0, Min: model.Bound(0)},
				"high": {Kind: model.KindBool, Default: false},
			},
		},
		DefaultInterval: defaultTick,
		Loop: func(c *digi.Ctx, work *model.Draft) error {
			cur, _ := work.GetFloat("ppm")
			work.Set("ppm", walk(c, cur,
				c.ConfigFloat("co2_min", 380),
				c.ConfigFloat("co2_max", 1600),
				c.ConfigFloat("co2_step", 40)))
			return nil
		},
		Sim: func(c *digi.Ctx, work *model.Draft, _ digi.Atts) error {
			ppm, _ := work.GetFloat("ppm")
			work.Set("high", ppm >= c.ConfigFloat("co2_alert", 1000))
			return c.PublishFields(work, "ppm", "high")
		},
	}
}

// NewSmokeDetector builds a smoke detector: smoke appears rarely
// (smoke_prob, default 0.01 per tick) and clears itself; the alarm
// status follows smoke in simulation.
func NewSmokeDetector() *digi.Kind {
	return &digi.Kind{
		Schema: &model.Schema{
			Type: "SmokeDetector", Version: "v1",
			Doc: "Smoke detector with derived alarm.",
			Fields: map[string]model.FieldSpec{
				"smoke": {Kind: model.KindBool, Default: false},
				"alarm": {Kind: model.KindBool, Default: false},
			},
		},
		DefaultInterval: defaultTick,
		Loop: func(c *digi.Ctx, work *model.Draft) error {
			if work.GetBool("smoke") {
				// Smoke clears with probability 0.5 per tick.
				if rare(c, 0.5) {
					work.Set("smoke", false)
				}
			} else {
				work.Set("smoke", rare(c, c.ConfigFloat("smoke_prob", 0.01)))
			}
			return nil
		},
		Sim: func(c *digi.Ctx, work *model.Draft, _ digi.Atts) error {
			work.Set("alarm", work.GetBool("smoke"))
			return c.PublishFields(work, "smoke", "alarm")
		},
	}
}

// NewWindowSensor builds an open/closed contact sensor. Config:
// toggle_prob (default 0.05 per tick).
func NewWindowSensor() *digi.Kind {
	return &digi.Kind{
		Schema: &model.Schema{
			Type: "WindowSensor", Version: "v1",
			Doc: "Window open/closed contact sensor.",
			Fields: map[string]model.FieldSpec{
				"open": {Kind: model.KindBool, Default: false},
			},
		},
		DefaultInterval: defaultTick,
		Loop: func(c *digi.Ctx, work *model.Draft) error {
			if rare(c, c.ConfigFloat("toggle_prob", 0.05)) {
				work.Set("open", !work.GetBool("open"))
			}
			return nil
		},
		Sim: func(c *digi.Ctx, work *model.Draft, _ digi.Atts) error {
			return c.PublishFields(work, "open")
		},
	}
}

// NewAirQuality builds a PM2.5 air-quality sensor with a derived AQI
// category ("good", "moderate", "unhealthy").
func NewAirQuality() *digi.Kind {
	return &digi.Kind{
		Schema: &model.Schema{
			Type: "AirQuality", Version: "v1",
			Doc: "PM2.5 air-quality sensor with derived AQI category.",
			Fields: map[string]model.FieldSpec{
				"pm25": {Kind: model.KindFloat, Default: 8.0, Min: model.Bound(0)},
				"aqi": {Kind: model.KindString, Default: "good",
					Enum: []string{"good", "moderate", "unhealthy"}},
			},
		},
		DefaultInterval: defaultTick,
		Loop: func(c *digi.Ctx, work *model.Draft) error {
			cur, _ := work.GetFloat("pm25")
			work.Set("pm25", walk(c, cur,
				c.ConfigFloat("pm25_min", 2),
				c.ConfigFloat("pm25_max", 120),
				c.ConfigFloat("pm25_step", 4)))
			return nil
		},
		Sim: func(c *digi.Ctx, work *model.Draft, _ digi.Atts) error {
			pm, _ := work.GetFloat("pm25")
			switch {
			case pm <= 12:
				work.Set("aqi", "good")
			case pm <= 35:
				work.Set("aqi", "moderate")
			default:
				work.Set("aqi", "unhealthy")
			}
			return c.PublishFields(work, "pm25", "aqi")
		},
	}
}

// NewNoiseSensor builds a sound-level sensor (dB) with a derived
// "loud" flag above noise_alert (default 75 dB).
func NewNoiseSensor() *digi.Kind {
	return &digi.Kind{
		Schema: &model.Schema{
			Type: "NoiseSensor", Version: "v1",
			Doc: "Sound level sensor (dB) with loudness flag.",
			Fields: map[string]model.FieldSpec{
				"db":   {Kind: model.KindFloat, Default: 40.0, Min: model.Bound(0)},
				"loud": {Kind: model.KindBool, Default: false},
			},
		},
		DefaultInterval: defaultTick,
		Loop: func(c *digi.Ctx, work *model.Draft) error {
			cur, _ := work.GetFloat("db")
			work.Set("db", walk(c, cur,
				c.ConfigFloat("db_min", 30),
				c.ConfigFloat("db_max", 95),
				c.ConfigFloat("db_step", 3)))
			return nil
		},
		Sim: func(c *digi.Ctx, work *model.Draft, _ digi.Atts) error {
			db, _ := work.GetFloat("db")
			work.Set("loud", db >= c.ConfigFloat("noise_alert", 75))
			return c.PublishFields(work, "db", "loud")
		},
	}
}

// NewLeakSensor builds a water-leak sensor; leaks appear with
// leak_prob (default 0.005 per tick) and persist until an explicit
// reset (setting "leak" back to false, e.g. via dbox edit).
func NewLeakSensor() *digi.Kind {
	return &digi.Kind{
		Schema: &model.Schema{
			Type: "LeakSensor", Version: "v1",
			Doc: "Water leak sensor; latches until reset.",
			Fields: map[string]model.FieldSpec{
				"leak": {Kind: model.KindBool, Default: false},
			},
		},
		DefaultInterval: defaultTick,
		Loop: func(c *digi.Ctx, work *model.Draft) error {
			if !work.GetBool("leak") && rare(c, c.ConfigFloat("leak_prob", 0.005)) {
				work.Set("leak", true)
			}
			return nil
		},
		Sim: func(c *digi.Ctx, work *model.Draft, _ digi.Atts) error {
			return c.PublishFields(work, "leak")
		},
	}
}
