package main

import (
	"time"

	"repro/internal/chaos"
	"repro/internal/vet/vettest"
)

// digis is the drill ensemble: an occupancy sensor and a lamp under a
// meeting-room scene — the quickstart composition, here subjected to a
// fault plan.
var digis = []vettest.Digi{
	{Type: "Occupancy", Name: "O1",
		Config: map[string]any{"interval_ms": int64(50), "trigger_prob": 1.0}},
	{Type: "Lamp", Name: "L1"},
	{Type: "Room", Name: "MeetingRoom",
		Config: map[string]any{"managed": false},
		Attach: []string{"O1", "L1"}},
}

// plan is the scene's chaos section: the digi runtime's broker link
// is severed, half the status traffic is lost for a window, the
// only node dies and revives, and the sensor goes silent for a spell.
// Every target names a digi or topic of the setup above — vet rule
// V013 rejects the setup otherwise.
var plan = &chaos.Plan{
	Name: "drill",
	Seed: 11,
	Events: []chaos.Event{
		{At: 100 * time.Millisecond, Fault: chaos.FaultDisconnect, Client: "digi-runtime"},
		{At: 150 * time.Millisecond, Fault: chaos.FaultDrop, Topic: "digibox/#", Rate: 0.5,
			For: 300 * time.Millisecond},
		{At: 200 * time.Millisecond, Fault: chaos.FaultNodeDown, Node: "laptop",
			For: 400 * time.Millisecond},
		{At: 250 * time.Millisecond, Fault: chaos.FaultDropout, Digi: "O1",
			For: 300 * time.Millisecond},
	},
}
