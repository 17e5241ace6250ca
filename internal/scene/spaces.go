package scene

import (
	"repro/internal/digi"
	"repro/internal/model"
)

// NewRoom builds the room scene of Fig. 5: the event generator flips
// human presence; the simulation handler keeps the room's occupancy
// ensemble consistent — every room-level Occupancy sensor reads the
// presence, and desk-level Underdesk sensors can only be triggered
// when the room is occupied.
func NewRoom() *digi.Kind {
	return &digi.Kind{
		Schema: &model.Schema{
			Type: "Room", Version: "v2", Scene: true,
			Doc: "Room scene coordinating occupancy sensors and lamps.",
			Fields: map[string]model.FieldSpec{
				"human_presence": {Kind: model.KindBool, Default: false},
			},
		},
		DefaultInterval: sceneTick,
		Loop: func(c *digi.Ctx, work *model.Draft) error {
			work.Set("human_presence", c.Rand.Intn(2) == 0)
			return nil
		},
		Sim: roomSim,
	}
}

// roomSim is the Fig. 5 room coordination, shared by Room and
// MeetingRoom.
func roomSim(c *digi.Ctx, work *model.Draft, atts digi.Atts) error {
	presence := work.GetBool("human_presence")
	for _, occ := range atts.Get("Occupancy") {
		occ.Set("triggered", presence)
	}
	for _, desk := range atts.Get("Underdesk") {
		if !presence {
			// Fig. 5 L13-16: no desk can be occupied in an empty room.
			desk.Set("triggered", false)
		}
	}
	// Smart-room policy: lamps follow presence when the room manages
	// lighting (meta config manage_lights, default true).
	if c.ConfigBool("manage_lights", true) {
		for _, lamp := range atts.Get("Lamp") {
			if presence {
				lamp.SetIntent("power", "on")
			} else {
				lamp.SetIntent("power", "off")
			}
		}
	}
	return nil
}

// NewMeetingRoom builds a meeting room: like Room, plus a meeting flag
// that forces every desk sensor on (a meeting fills the desks).
func NewMeetingRoom() *digi.Kind {
	return &digi.Kind{
		Schema: &model.Schema{
			Type: "MeetingRoom", Version: "v1", Scene: true,
			Doc: "Meeting room: Room semantics plus meeting-in-progress.",
			Fields: map[string]model.FieldSpec{
				"human_presence": {Kind: model.KindBool, Default: false},
				"meeting":        {Kind: model.KindBool, Default: false},
			},
		},
		DefaultInterval: sceneTick,
		Loop: func(c *digi.Ctx, work *model.Draft) error {
			meeting := c.Rand.Float64() < c.ConfigFloat("meeting_prob", 0.3)
			work.Set("meeting", meeting)
			work.Set("human_presence", meeting || c.Rand.Intn(2) == 0)
			return nil
		},
		Sim: func(c *digi.Ctx, work *model.Draft, atts digi.Atts) error {
			if err := roomSim(c, work, atts); err != nil {
				return err
			}
			if work.GetBool("meeting") && work.GetBool("human_presence") {
				for _, desk := range atts.Get("Underdesk") {
					desk.Set("triggered", true)
				}
			}
			return nil
		},
	}
}

// NewBuilding builds the building scene of Fig. 5: the event generator
// decides the number of humans in the building; the simulation handler
// distributes them over the attached rooms by configuring each room's
// human_presence (Fig. 5 L25-37).
func NewBuilding() *digi.Kind {
	return &digi.Kind{
		Schema: &model.Schema{
			Type: "Building", Version: "v3", Scene: true,
			Doc: "Building scene distributing humans over attached rooms.",
			Fields: map[string]model.FieldSpec{
				"num_human": {Kind: model.KindInt, Default: int64(0), Min: model.Bound(0)},
			},
		},
		DefaultInterval: sceneTick,
		Loop: func(c *digi.Ctx, work *model.Draft) error {
			max := c.ConfigInt("max_human", 2)
			work.Set("num_human", int64(c.Rand.Intn(int(max)+1)))
			return nil
		},
		Sim: func(c *digi.Ctx, work *model.Draft, atts digi.Atts) error {
			n, _ := work.GetInt("num_human")
			// Deterministically spread humans over rooms, mirroring the
			// random.choices pick of Fig. 5 but reproducible per seed.
			for _, roomType := range []string{"Room", "MeetingRoom", "Kitchen", "Office"} {
				names := atts.Names(roomType)
				rooms := atts.Get(roomType)
				for i, name := range names {
					rooms[name].Set("human_presence", int64(i) < n)
				}
				if n > int64(len(names)) {
					n -= int64(len(names))
				} else {
					n = 0
				}
			}
			return nil
		},
	}
}

// NewCampus builds a campus scene: it sets the occupancy level of each
// attached building (num_human) from a campus-wide occupancy fraction.
func NewCampus() *digi.Kind {
	return &digi.Kind{
		Schema: &model.Schema{
			Type: "Campus", Version: "v1", Scene: true,
			Doc: "Campus scene scaling building occupancy.",
			Fields: map[string]model.FieldSpec{
				"occupancy_frac": {Kind: model.KindFloat, Default: 0.0,
					Min: model.Bound(0), Max: model.Bound(1)},
			},
		},
		DefaultInterval: sceneTick,
		Loop: func(c *digi.Ctx, work *model.Draft) error {
			work.Set("occupancy_frac", float64(c.Rand.Intn(101))/100)
			return nil
		},
		Sim: func(c *digi.Ctx, work *model.Draft, atts digi.Atts) error {
			frac, _ := work.GetFloat("occupancy_frac")
			perBuilding := c.ConfigInt("humans_per_building", 10)
			for _, b := range atts.Get("Building") {
				b.Set("num_human", int64(frac*float64(perBuilding)))
			}
			return nil
		},
	}
}

// NewHome builds a smart-home scene: occupants and an evening flag;
// lamps are on only when someone is home in the evening, and the door
// locks whenever the home empties.
func NewHome() *digi.Kind {
	return &digi.Kind{
		Schema: &model.Schema{
			Type: "Home", Version: "v1", Scene: true,
			Doc: "Smart home: lighting follows occupancy and time of day.",
			Fields: map[string]model.FieldSpec{
				"occupants": {Kind: model.KindInt, Default: int64(0), Min: model.Bound(0)},
				"evening":   {Kind: model.KindBool, Default: false},
			},
		},
		DefaultInterval: sceneTick,
		Loop: func(c *digi.Ctx, work *model.Draft) error {
			work.Set("occupants", int64(c.Rand.Intn(4)))
			work.Set("evening", c.Rand.Intn(2) == 0)
			return nil
		},
		Sim: func(c *digi.Ctx, work *model.Draft, atts digi.Atts) error {
			occupants, _ := work.GetInt("occupants")
			evening := work.GetBool("evening")
			for _, lamp := range atts.Get("Lamp") {
				if occupants > 0 && evening {
					lamp.SetIntent("power", "on")
				} else {
					lamp.SetIntent("power", "off")
				}
			}
			for _, lock := range atts.Get("DoorLock") {
				lock.SetIntent("locked", occupants == 0)
			}
			for _, occ := range atts.Get("Occupancy") {
				occ.Set("triggered", occupants > 0)
			}
			return nil
		},
	}
}

// NewKitchen builds a kitchen scene: while cooking, temperature
// sensors read elevated values and the fan is forced on.
func NewKitchen() *digi.Kind {
	return &digi.Kind{
		Schema: &model.Schema{
			Type: "Kitchen", Version: "v1", Scene: true,
			Doc: "Kitchen: cooking raises temperatures and runs the fan.",
			Fields: map[string]model.FieldSpec{
				"human_presence": {Kind: model.KindBool, Default: false},
				"cooking":        {Kind: model.KindBool, Default: false},
			},
		},
		DefaultInterval: sceneTick,
		Loop: func(c *digi.Ctx, work *model.Draft) error {
			presence := c.Rand.Intn(2) == 0
			work.Set("human_presence", presence)
			work.Set("cooking", presence && c.Rand.Float64() < c.ConfigFloat("cooking_prob", 0.4))
			return nil
		},
		Sim: func(c *digi.Ctx, work *model.Draft, atts digi.Atts) error {
			presence := work.GetBool("human_presence")
			cooking := work.GetBool("cooking")
			for _, occ := range atts.Get("Occupancy") {
				occ.Set("triggered", presence)
			}
			for _, temp := range atts.Get("TemperatureSensor") {
				if cooking {
					cur, _ := temp.GetFloat("temperature")
					if cur < 30 {
						temp.Set("temperature", 32.0)
					}
				}
			}
			for _, fan := range atts.Get("Fan") {
				if cooking {
					fan.SetIntent("power", "on")
					fan.SetIntent("speed", int64(3))
				} else {
					fan.SetIntent("power", "off")
				}
			}
			return nil
		},
	}
}

// NewOffice builds an office scene: occupancy tracks work hours, and
// CO2 rises with the number of occupants.
func NewOffice() *digi.Kind {
	return &digi.Kind{
		Schema: &model.Schema{
			Type: "Office", Version: "v1", Scene: true,
			Doc: "Office: occupancy follows work hours; CO2 follows occupancy.",
			Fields: map[string]model.FieldSpec{
				"human_presence": {Kind: model.KindBool, Default: false},
				"work_hours":     {Kind: model.KindBool, Default: true},
				"occupants":      {Kind: model.KindInt, Default: int64(0), Min: model.Bound(0)},
			},
		},
		DefaultInterval: sceneTick,
		Loop: func(c *digi.Ctx, work *model.Draft) error {
			wh := c.Rand.Float64() < c.ConfigFloat("work_hours_frac", 0.7)
			work.Set("work_hours", wh)
			if wh {
				work.Set("occupants", int64(1+c.Rand.Intn(8)))
			} else {
				work.Set("occupants", int64(0))
			}
			work.Set("human_presence", wh)
			return nil
		},
		Sim: func(c *digi.Ctx, work *model.Draft, atts digi.Atts) error {
			occupants, _ := work.GetInt("occupants")
			for _, occ := range atts.Get("Occupancy") {
				occ.Set("triggered", occupants > 0)
			}
			for _, co2 := range atts.Get("CO2Sensor") {
				// Each occupant adds ~80 ppm over the 420 baseline.
				co2.Set("ppm", 420.0+float64(occupants)*80)
			}
			for _, lamp := range atts.Get("Lamp") {
				if occupants > 0 {
					lamp.SetIntent("power", "on")
				} else {
					lamp.SetIntent("power", "off")
				}
			}
			return nil
		},
	}
}
