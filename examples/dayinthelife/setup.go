package main

import (
	"time"

	"repro/internal/chaos"
	"repro/internal/vet/vettest"
)

// digis is the building ensemble: a lobby occupancy sensor, an
// ambient temperature sensor, a corridor lamp, and the room scene
// coordinating them. Intervals are sparse (minutes, not milliseconds)
// so 24 hours of scenario time stays a few hundred events — the point
// of the long-horizon tier is horizon, not volume.
var digis = []vettest.Digi{
	{Type: "Occupancy", Name: "lobby",
		Config: map[string]any{"interval_ms": int64(300000), "trigger_prob": 0.05, "seed": int64(7)}},
	{Type: "TemperatureSensor", Name: "hvac",
		Config: map[string]any{"interval_ms": int64(900000), "seed": int64(3)}},
	{Type: "Lamp", Name: "corridor-lamp",
		Config: map[string]any{"interval_ms": int64(1800000)}},
	{Type: "Room", Name: "building",
		Config: map[string]any{"managed": false, "interval_ms": int64(900000)},
		Attach: []string{"lobby", "corridor-lamp"}},
}

// diurnalProb is the occupancy load curve: the probability that the
// lobby sensor triggers on a given tick, by scenario hour of day.
func diurnalProb(hour int) float64 {
	switch {
	case hour >= 9 && hour < 12:
		return 0.85
	case hour >= 12 && hour < 14:
		return 0.6
	case hour >= 14 && hour < 18:
		return 0.8
	case hour >= 6 && hour < 9, hour >= 18 && hour < 21:
		return 0.35
	default:
		return 0.05
	}
}

// nightDrillA is the 02:00 delivery-layer drill: the runtime's broker
// link is cut (self-healing must restore it), half the status
// traffic is dropped for ten minutes, and the lobby sensor goes
// silent for ten minutes.
var nightDrillA = &chaos.Plan{
	Name: "night-drill-delivery",
	Seed: 11,
	Events: []chaos.Event{
		{At: 0, Fault: chaos.FaultDisconnect, Client: "digi-runtime"},
		{At: 30 * time.Second, Fault: chaos.FaultDrop, Topic: "digibox/#", Rate: 0.5,
			For: 10 * time.Minute},
		{At: time.Minute, Fault: chaos.FaultDropout, Digi: "lobby",
			For: 10 * time.Minute},
	},
}

// nightDrillB is the 03:00 infrastructure drill: node n1 dies for
// fifteen minutes (its pods evict and reschedule) and the corridor
// lamp freezes for ten.
var nightDrillB = &chaos.Plan{
	Name: "night-drill-infra",
	Seed: 13,
	Events: []chaos.Event{
		{At: 0, Fault: chaos.FaultNodeDown, Node: "n1", For: 15 * time.Minute},
		{At: time.Minute, Fault: chaos.FaultStuck, Digi: "corridor-lamp",
			For: 10 * time.Minute},
	},
}
