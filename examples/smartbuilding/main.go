// Smart building: the paper's walkthrough application (§3, Fig. 6),
// end to end.
//
// The scene side builds the ConfCenter hierarchy — a Building scene
// with a MeetingRoom and a Kitchen, occupancy sensors (ceiling and
// under-desk), and a lamp. The application side is a small smart
// building app of the kind the paper's introduction motivates: it
// subscribes to the sensors over MQTT, derives per-room occupancy,
// alerts on overcrowding, and reacts to conditions — exactly the app
// logic / scene logic split Digibox advocates.
//
// The run also demonstrates the reproducibility workflow: a scene
// property is checked at run time, the setup is committed to a scene
// repository, and the trace is saved for replay.
//
//	go run ./examples/smartbuilding
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	digibox "repro"
	"repro/internal/broker"
	"repro/internal/property"
	"repro/internal/trace"
	"repro/internal/vet/vettest"
)

// occupancyApp is the application under test. It holds only app logic:
// how to process device data, never how devices behave.
type occupancyApp struct {
	mu       sync.Mutex
	readings map[string]bool // sensor -> triggered
	rooms    map[string][]string
	alerts   []string
}

func newOccupancyApp(rooms map[string][]string) *occupancyApp {
	return &occupancyApp{readings: map[string]bool{}, rooms: rooms}
}

// consume handles one MQTT status message from a sensor.
func (a *occupancyApp) consume(sensor string, payload []byte) {
	var status struct {
		Triggered bool `json:"triggered"`
	}
	if err := json.Unmarshal(payload, &status); err != nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.readings[sensor] = status.Triggered
}

// occupiedRooms derives room occupancy from sensor readings (the app
// logic the testbed exists to exercise).
func (a *occupancyApp) occupiedRooms() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []string
	for room, sensors := range a.rooms {
		for _, s := range sensors {
			if a.readings[s] {
				out = append(out, room)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// lampOffWithin bounds, in scenario time, how long the meeting-room
// lamp may stay on once the room is empty. The room clears its sensors
// and writes the lamp's power intent in one reconcile, but the lamp's
// status follows only when the lamp reconciles that intent: one queue
// hop plus the lamp's actuation delay (meta actuation_delay_ms, 0
// here). A second covers that hop many times over on a loaded or
// race-instrumented host, and a lamp nobody switches off still breaks
// the property.
const lampOffWithin = time.Second

// noLightInEmptyRoom is the scene property (§3.3): an empty meeting
// room with its lamp on leads to the lamp off within lampOffWithin.
// It is a bounded leads-to, not Never(empty ∧ on): the lamp's status
// is the lamp's own write, so it lags the room's one hop.
var noLightInEmptyRoom = &digibox.Property{
	Name: "no-light-in-empty-room",
	Kind: property.LeadsTo,
	Trigger: digibox.Condition{
		{Model: "O1", Path: "triggered", Op: property.Eq, Value: false},
		{Model: "L1", Path: "power.status", Op: property.Eq, Value: "on"},
	},
	Response: digibox.Condition{
		{Model: "L1", Path: "power.status", Op: property.Eq, Value: "off"},
	},
	Within: lampOffWithin,
}

// setUp starts a testbed holding the ConfCenter hierarchy (Fig. 6, from
// the vetted scene table) and its scene property. With manageLights
// false the meeting room leaves its lamp alone.
func setUp(repoDir string, manageLights bool) (*digibox.Testbed, error) {
	tb, err := digibox.New(digibox.Options{LocalRepoDir: repoDir})
	if err != nil {
		return nil, err
	}
	if err := tb.Start(); err != nil {
		return nil, err
	}
	table := digis
	if !manageLights {
		table = slices.Clone(digis)
		for i, d := range table {
			if d.Name == "MeetingRoom" {
				table[i].Config = map[string]any{"managed": false, "manage_lights": false}
			}
		}
	}
	if err := vettest.Deploy(tb, table); err != nil {
		tb.Stop()
		return nil, err
	}
	if err := tb.AddProperty(noLightInEmptyRoom); err != nil {
		tb.Stop()
		return nil, err
	}
	return tb, nil
}

// drive runs the walkthrough on tb: the application subscribes to the
// sensors over MQTT (Fig. 2), two humans enter, someone switches the
// meeting-room lamp on, and the building empties. It reports what the
// app derives to out and returns the property violations once the
// lamp's status has gone off or a violation was reported.
func drive(tb *digibox.Testbed, out io.Writer) ([]property.Violation, error) {
	app := newOccupancyApp(map[string][]string{
		"MeetingRoom": {"O1", "D1"},
		"Kitchen":     {"O2"},
	})
	mqtt, err := broker.Dial(tb.BrokerAddr(), &broker.ClientOptions{ClientID: "smartbuilding-app"})
	if err != nil {
		return nil, err
	}
	defer mqtt.Close()
	for _, sensor := range []string{"O1", "D1", "O2"} {
		sensor := sensor
		if err := mqtt.Subscribe("digibox/"+sensor+"/status", 1, func(m broker.Message) {
			app.consume(sensor, m.Payload)
		}); err != nil {
			return nil, err
		}
	}

	fmt.Fprintln(out, "== 2 humans enter ConfCenter")
	if err := tb.Edit("ConfCenter", map[string]any{"num_human": 2}); err != nil {
		return nil, err
	}
	if err := waitFor(tb, func() bool { return len(app.occupiedRooms()) == 2 }, "app sees both rooms occupied"); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "   app derives occupied rooms: %v\n", app.occupiedRooms())
	fmt.Fprintln(out, "== someone switches the meeting-room lamp on")
	if err := tb.Edit("L1", map[string]any{"power": map[string]any{"intent": "on"}}); err != nil {
		return nil, err
	}

	fmt.Fprintln(out, "== building empties")
	emptied := tb.Log.Len()
	if err := tb.Edit("ConfCenter", map[string]any{"num_human": 0}); err != nil {
		return nil, err
	}
	if err := waitFor(tb, func() bool { return len(app.occupiedRooms()) == 0 }, "app sees building empty"); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "   app derives occupied rooms: %v\n", app.occupiedRooms())
	lampOff := func() bool {
		for _, r := range tb.Log.Records()[emptied:] {
			if r.Kind == trace.KindAction && r.Name == "L1" && r.Sets["power.status"] == "off" {
				return true
			}
		}
		return false
	}
	if err := waitFor(tb, func() bool { return lampOff() || len(tb.Violations()) > 0 }, "the lamp off or a violation"); err != nil {
		return nil, err
	}
	return tb.Violations(), nil
}

func main() {
	repoDir := filepath.Join(os.TempDir(), "digibox-smartbuilding-repo")
	defer os.RemoveAll(repoDir)
	tb, err := setUp(repoDir, true)
	must(err)
	defer tb.Stop()

	v, err := drive(tb, os.Stdout)
	must(err)
	if len(v) == 0 {
		fmt.Println("== scene property held throughout: no light in empty room")
	} else {
		fmt.Printf("== property violations: %d (first: %s)\n", len(v), v[0].Detail)
	}

	// --- Reproducibility: commit setup, save trace ---
	version, err := tb.CommitScene("ConfCenter")
	must(err)
	fmt.Printf("== committed setup ConfCenter %s to the scene repository\n", version)
	tracePath := filepath.Join(os.TempDir(), "confcenter-trace.zip")
	must(tb.SaveTrace(tracePath))
	info, _ := os.Stat(tracePath)
	fmt.Printf("== saved trace archive %s (%d bytes, %d records)\n",
		tracePath, info.Size(), tb.Log.Len())
	os.Remove(tracePath)
}

func waitFor(tb *digibox.Testbed, cond func() bool, what string) error {
	if err := tb.WaitConverged(10*time.Second, cond); err != nil {
		return fmt.Errorf("timed out waiting for %s", what)
	}
	return nil
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
