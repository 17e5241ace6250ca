package device

import (
	"repro/internal/digi"
	"repro/internal/model"
)

// NewLamp builds the mock lamp of Fig. 4: power and intensity are
// intent/status pairs; the simulation handler sets intensity.status to
// the intent while powered, and to 0 when off, then publishes both.
func NewLamp() *digi.Kind {
	return &digi.Kind{
		Schema: &model.Schema{
			Type: "Lamp", Version: "v1",
			Doc: "Dimmable smart lamp.",
			Fields: map[string]model.FieldSpec{
				"power": {Kind: model.KindIntent, ElemKind: model.KindString,
					Enum: []string{"on", "off"}, Default: "off"},
				"intensity": {Kind: model.KindIntent, ElemKind: model.KindFloat,
					Min: model.Bound(0), Max: model.Bound(1), Default: 0.0},
			},
		},
		Sim: func(c *digi.Ctx, work *model.Draft, _ digi.Atts) error {
			if work.GetString("power.status") != work.GetString("power.intent") {
				if !actuate(c) {
					return nil
				}
			}
			power := work.GetString("power.intent")
			work.SetStatus("power", power)
			if power == "off" {
				work.SetStatus("intensity", 0.0)
			} else {
				v, _ := work.GetFloat("intensity.intent")
				work.SetStatus("intensity", v)
			}
			return c.PublishFields(work, "power", "intensity")
		},
	}
}

// NewFan builds a multi-speed fan: power on/off plus a speed level
// 0-3, both intent/status pairs.
func NewFan() *digi.Kind {
	return &digi.Kind{
		Schema: &model.Schema{
			Type: "Fan", Version: "v1",
			Doc: "Multi-speed fan (speed 0-3).",
			Fields: map[string]model.FieldSpec{
				"power": {Kind: model.KindIntent, ElemKind: model.KindString,
					Enum: []string{"on", "off"}, Default: "off"},
				"speed": {Kind: model.KindIntent, ElemKind: model.KindInt,
					Min: model.Bound(0), Max: model.Bound(3), Default: int64(0)},
			},
		},
		Sim: func(c *digi.Ctx, work *model.Draft, _ digi.Atts) error {
			if work.GetString("power.status") != work.GetString("power.intent") {
				if !actuate(c) {
					return nil
				}
			}
			power := work.GetString("power.intent")
			work.SetStatus("power", power)
			if power == "off" {
				work.SetStatus("speed", int64(0))
			} else {
				v, _ := work.GetInt("speed.intent")
				work.SetStatus("speed", v)
			}
			return c.PublishFields(work, "power", "speed")
		},
	}
}

// NewHVAC builds an HVAC unit: mode (off/heat/cool) and target
// temperature are intents; the event generator drifts the measured
// current_temp toward the target while running, modelling the room's
// thermal response.
func NewHVAC() *digi.Kind {
	return &digi.Kind{
		Schema: &model.Schema{
			Type: "HVAC", Version: "v1",
			Doc: "HVAC unit with thermal drift toward the target temperature.",
			Fields: map[string]model.FieldSpec{
				"mode": {Kind: model.KindIntent, ElemKind: model.KindString,
					Enum: []string{"off", "heat", "cool"}, Default: "off"},
				"target_temp": {Kind: model.KindIntent, ElemKind: model.KindFloat,
					Min: model.Bound(10), Max: model.Bound(35), Default: 22.0},
				"current_temp": {Kind: model.KindFloat, Default: 21.0},
			},
		},
		DefaultInterval: defaultTick,
		Loop: func(c *digi.Ctx, work *model.Draft) error {
			cur, _ := work.GetFloat("current_temp")
			mode := work.GetString("mode.status")
			target, _ := work.GetFloat("target_temp.status")
			rate := c.ConfigFloat("thermal_rate", 0.2)
			switch {
			case mode == "heat" && cur < target:
				cur += rate
			case mode == "cool" && cur > target:
				cur -= rate
			default:
				// Ambient drift toward the configured outside temp.
				outside := c.ConfigFloat("ambient_temp", 18)
				if cur > outside {
					cur -= rate / 4
				} else {
					cur += rate / 4
				}
			}
			work.Set("current_temp", float64(int(cur*100))/100)
			return nil
		},
		Sim: func(c *digi.Ctx, work *model.Draft, _ digi.Atts) error {
			if work.GetString("mode.status") != work.GetString("mode.intent") {
				if !actuate(c) {
					return nil
				}
			}
			work.SetStatus("mode", work.GetString("mode.intent"))
			t, _ := work.GetFloat("target_temp.intent")
			work.SetStatus("target_temp", t)
			return c.PublishFields(work, "mode", "target_temp", "current_temp")
		},
	}
}

// NewThermostat builds a thermostat: a setpoint intent and a measured
// temperature that random-walks; "calling" reports whether the
// thermostat is demanding heat.
func NewThermostat() *digi.Kind {
	return &digi.Kind{
		Schema: &model.Schema{
			Type: "Thermostat", Version: "v1",
			Doc: "Thermostat with heat-call output.",
			Fields: map[string]model.FieldSpec{
				"setpoint": {Kind: model.KindIntent, ElemKind: model.KindFloat,
					Min: model.Bound(5), Max: model.Bound(35), Default: 20.0},
				"temperature": {Kind: model.KindFloat, Default: 20.0},
				"calling":     {Kind: model.KindBool, Default: false},
			},
		},
		DefaultInterval: defaultTick,
		Loop: func(c *digi.Ctx, work *model.Draft) error {
			cur, _ := work.GetFloat("temperature")
			work.Set("temperature", walk(c, cur,
				c.ConfigFloat("temp_min", 15),
				c.ConfigFloat("temp_max", 27),
				c.ConfigFloat("temp_step", 0.4)))
			return nil
		},
		Sim: func(c *digi.Ctx, work *model.Draft, _ digi.Atts) error {
			sp, _ := work.GetFloat("setpoint.intent")
			work.SetStatus("setpoint", sp)
			cur, _ := work.GetFloat("temperature")
			work.Set("calling", cur < sp-0.5)
			return c.PublishFields(work, "setpoint", "temperature", "calling")
		},
	}
}

// NewDoorLock builds a smart lock: locked is an intent/status pair
// with actuation delay; forced reports a forced-open event.
func NewDoorLock() *digi.Kind {
	return &digi.Kind{
		Schema: &model.Schema{
			Type: "DoorLock", Version: "v1",
			Doc: "Smart door lock with forced-entry detection.",
			Fields: map[string]model.FieldSpec{
				"locked": {Kind: model.KindIntent, ElemKind: model.KindBool, Default: true},
				"forced": {Kind: model.KindBool, Default: false},
			},
		},
		DefaultInterval: defaultTick,
		Loop: func(c *digi.Ctx, work *model.Draft) error {
			// Forced entry is a rare adversarial event.
			if !work.GetBool("forced") && rare(c, c.ConfigFloat("forced_prob", 0.002)) {
				work.Set("forced", true)
			}
			return nil
		},
		Sim: func(c *digi.Ctx, work *model.Draft, _ digi.Atts) error {
			li, _ := work.Intent("locked")
			ls, _ := work.Status("locked")
			if li != ls {
				if !actuate(c) {
					return nil
				}
				work.SetStatus("locked", li)
			}
			return c.PublishFields(work, "locked", "forced")
		},
	}
}

// NewCamera builds a security camera: power intent/status, motion
// detection events while powered, and a frame counter.
func NewCamera() *digi.Kind {
	return &digi.Kind{
		Schema: &model.Schema{
			Type: "Camera", Version: "v1",
			Doc: "Security camera with motion events and frame counter.",
			Fields: map[string]model.FieldSpec{
				"power": {Kind: model.KindIntent, ElemKind: model.KindString,
					Enum: []string{"on", "off"}, Default: "on"},
				"motion": {Kind: model.KindBool, Default: false},
				"frames": {Kind: model.KindInt, Default: int64(0), Min: model.Bound(0)},
			},
		},
		DefaultInterval: defaultTick,
		Loop: func(c *digi.Ctx, work *model.Draft) error {
			if work.GetString("power.status") != "on" {
				return nil
			}
			n, _ := work.GetInt("frames")
			work.Set("frames", n+c.ConfigInt("fps_per_tick", 15))
			work.Set("motion", rare(c, c.ConfigFloat("motion_prob", 0.2)))
			return nil
		},
		Sim: func(c *digi.Ctx, work *model.Draft, _ digi.Atts) error {
			if work.GetString("power.status") != work.GetString("power.intent") {
				if !actuate(c) {
					return nil
				}
			}
			work.SetStatus("power", work.GetString("power.intent"))
			if work.GetString("power.status") == "off" {
				work.Set("motion", false)
			}
			return c.PublishFields(work, "power", "motion", "frames")
		},
	}
}

// NewSmartPlug builds a metering smart plug: power intent/status and a
// wattage reading equal to the configured load while on.
func NewSmartPlug() *digi.Kind {
	return &digi.Kind{
		Schema: &model.Schema{
			Type: "SmartPlug", Version: "v1",
			Doc: "Metering smart plug.",
			Fields: map[string]model.FieldSpec{
				"power": {Kind: model.KindIntent, ElemKind: model.KindString,
					Enum: []string{"on", "off"}, Default: "off"},
				"watts": {Kind: model.KindFloat, Default: 0.0, Min: model.Bound(0)},
			},
		},
		Sim: func(c *digi.Ctx, work *model.Draft, _ digi.Atts) error {
			if work.GetString("power.status") != work.GetString("power.intent") {
				if !actuate(c) {
					return nil
				}
			}
			power := work.GetString("power.intent")
			work.SetStatus("power", power)
			if power == "on" {
				work.Set("watts", c.ConfigFloat("load_watts", 60))
			} else {
				work.Set("watts", 0.0)
			}
			return c.PublishFields(work, "power", "watts")
		},
	}
}
