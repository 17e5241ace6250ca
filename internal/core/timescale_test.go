package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/clock"
	"repro/internal/replay"
)

// TestTimeScaleCompressesLiveChaos runs a real testbed — broker, kube
// cluster, chaos engine — on a 50× scaled clock. The
// 600ms chaos plan must inject and recover everything while finishing
// far faster than real time would allow.
func TestTimeScaleCompressesLiveChaos(t *testing.T) {
	tb := newTestbed(t, Options{
		TimeScale: 50,
		Nodes: []NodeSpec{
			{Name: "n1", Capacity: 100, Zone: "local"},
			{Name: "n2", Capacity: 100, Zone: "local"},
		},
	})
	if got := tb.TimeScale(); got != 50 {
		t.Fatalf("TimeScale() = %v, want 50", got)
	}
	if err := tb.Run("Occupancy", "O1", map[string]any{"interval_ms": int64(30), "trigger_prob": 1.0}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Run("Lamp", "L1", nil); err != nil {
		t.Fatal(err)
	}

	plan := &chaos.Plan{
		Name: "timewarp-survival",
		Seed: 7,
		Events: []chaos.Event{
			{At: 50 * time.Millisecond, Fault: chaos.FaultDisconnect, Client: "digi-runtime"},
			{At: 120 * time.Millisecond, Fault: chaos.FaultStuck, Digi: "L1", For: 200 * time.Millisecond},
		},
	}
	wallStart := time.Now()
	rep, err := tb.RunChaosPlan(context.Background(), plan)
	wall := time.Since(wallStart)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Skipped) != 0 {
		t.Fatalf("skipped injections: %v", rep.Skipped)
	}
	if rep.Injected != 2 || rep.Reverted < 1 {
		t.Fatalf("report = %+v, want 2 injected with the timed fault reverted", rep)
	}
	// 600ms+ of scenario time at 50×: even with generous slack for
	// reconnect handshakes this must beat real time by a wide margin.
	if wall > 450*time.Millisecond {
		t.Errorf("50x chaos plan took %v of wall time; compression is not happening", wall)
	}
	// Uptime runs on scenario time, so it must exceed the wall time
	// spent by roughly the scale factor.
	if up := tb.Uptime(); up < 2*wall {
		t.Errorf("Uptime() = %v after %v wall at 50x; testbed is not on the scaled clock", up, wall)
	}
}

// TestRunScenarioPacedAndTracked: RunScenario paces on its own scaled
// clock, produces the same digest as unpaced recording, and leaves a
// completed timewarp status behind.
func TestRunScenarioPacedAndTracked(t *testing.T) {
	tb := newTestbed(t, Options{BrokerAddr: "none", RESTAddr: "none"})
	sc := &replay.Scenario{
		Name:     "paced",
		Duration: 200 * time.Millisecond,
		Digis: []replay.Digi{
			{Type: "Occupancy", Name: "O1", Config: map[string]any{"interval_ms": int64(40), "trigger_prob": 1.0}},
		},
	}
	ref, err := tb.Record(sc)
	if err != nil {
		t.Fatal(err)
	}

	res, err := tb.RunScenario(context.Background(), sc, 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Digest != ref.Digest {
		t.Fatalf("paced digest %s != unpaced %s", res.Digest, ref.Digest)
	}
	if res.Wall < sc.Duration/20/2 {
		t.Errorf("speed-20 run of %v finished in %v wall; pacing is not happening", sc.Duration, res.Wall)
	}

	st := tb.ScenarioStatus()
	if st == nil {
		t.Fatal("ScenarioStatus() = nil after a run")
	}
	if st.Running || st.Name != "paced" || st.Digest != ref.Digest {
		t.Errorf("status = %+v, want finished run 'paced' with matching digest", st)
	}
	if st.Speed != "20" {
		t.Errorf("status speed = %q, want \"20\"", st.Speed)
	}
	if st.ScenarioMs != 200 {
		t.Errorf("status scenario_ms = %d, want 200", st.ScenarioMs)
	}
}

// TestRunScenarioDefaultSpeedMax: speed 0 on a real-time testbed means
// the testbed's TimeScale (1 = real time would crawl), so the CLI
// passes max explicitly; here we check 0 resolves to TimeScale.
func TestRunScenarioSpeedDefaults(t *testing.T) {
	tb := newTestbed(t, Options{BrokerAddr: "none", RESTAddr: "none", TimeScale: clock.SpeedMax})
	sc := &replay.Scenario{
		Name:     "defaulted",
		Duration: 500 * time.Millisecond,
		Digis: []replay.Digi{
			{Type: "Occupancy", Name: "O1", Config: map[string]any{"interval_ms": int64(50), "trigger_prob": 1.0}},
		},
	}
	res, err := tb.RunScenario(context.Background(), sc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Speed != clock.SpeedMax {
		t.Fatalf("speed 0 resolved to %v, want the testbed's SpeedMax TimeScale", res.Speed)
	}
	if res.Wall > 2*time.Second {
		t.Errorf("unpaced 500ms scenario took %v wall", res.Wall)
	}
	if st := tb.ScenarioStatus(); st == nil || st.Speed != "max" {
		t.Errorf("status = %+v, want speed \"max\"", st)
	}
}
