package main

// The drill proper, shared by `go run ./examples/dayinthelife` and
// the daylong test tier: 24 scenario-hours of building life on a
// time-compressed live testbed. Wall time is measured with the real
// clock (this is an example binary, not a runtime package); all
// waiting happens on the testbed's scenario clock so the whole day
// compresses by the chosen factor.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	digibox "repro"
	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/swarm"
	"repro/internal/vet/vettest"
)

// dayConfig parameterizes one run of the drill.
type dayConfig struct {
	// Speed is the time-compression factor (clock.SpeedMax = unpaced
	// discrete-event firing; the default for the drill).
	Speed float64
	// Hours of scenario time to simulate (default 24).
	Hours int
	// Log, when set, receives progress lines (fmt.Printf shaped).
	Log func(format string, args ...any)
}

// dayReport is the machine-readable outcome (BENCH_timewarp.json).
type dayReport struct {
	Scenario string `json:"scenario"`
	Speed    string `json:"speed"`
	// ScenarioHours is the scenario time from the end of the deploy to
	// the end of the day: the one-minute lead-in plus the hours walked.
	ScenarioHours float64 `json:"scenario_hours"`
	// OverrunMinutes is the scenario time by which hours whose calls
	// outlasted the hour ran past it. The next hour absorbs it, since
	// every hour ends at its mark from the day's start, so it is not
	// part of ScenarioHours unless the last hour overran.
	OverrunMinutes float64 `json:"overrun_minutes"`
	WallSec        float64 `json:"wall_sec"`
	// CompressionX is scenario seconds per wall second achieved.
	CompressionX float64 `json:"compression_x"`
	// WallSecPerScenarioHour is the headline rate: how much wall time
	// one scenario hour costs at this speed.
	WallSecPerScenarioHour float64 `json:"wall_sec_per_scenario_hour"`

	FaultsInjected  float64 `json:"faults_injected"`
	FaultsRecovered float64 `json:"faults_recovered"`

	SwarmPublished int64   `json:"swarm_published"`
	SwarmExpected  int64   `json:"swarm_expected"`
	SwarmLost      int64   `json:"swarm_lost"`
	SwarmShed      int64   `json:"swarm_shed"`
	Failovers      int64   `json:"failovers"`
	RecoveryP99Ms  float64 `json:"recovery_p99_ms"`

	GoroutinesStart int `json:"goroutines_start"`
	GoroutinesEnd   int `json:"goroutines_end"`

	// Gates lists every failed acceptance gate; empty means the day
	// survived clean.
	Gates []string `json:"gates_failed"`
}

// WriteJSON saves the report.
func (r *dayReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runDay executes the day-in-the-life drill: deploy the building,
// walk 24 scenario hours with the diurnal occupancy curve, run the
// two nightly chaos drills and the midday swarm burst with a shard
// kill, then settle and gate the outcome.
func runDay(cfg dayConfig) (*dayReport, error) {
	if cfg.Hours <= 0 {
		cfg.Hours = 24
	}
	logf := cfg.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}

	var nodes []digibox.NodeSpec
	for _, n := range []string{"n1", "n2"} {
		nodes = append(nodes, digibox.NodeSpec{Name: n, Capacity: 64, Zone: "local"})
	}
	tb, err := digibox.New(digibox.Options{
		TimeScale: cfg.Speed,
		Observer:  true,
		Nodes:     nodes,
	})
	if err != nil {
		return nil, err
	}
	if err := tb.Start(); err != nil {
		return nil, err
	}
	defer tb.Stop()
	if err := vettest.Deploy(tb, digis); err != nil {
		return nil, err
	}

	clk := tb.Clock()
	ctx := context.Background()
	wallStart := time.Now()
	deployed := clk.Now()
	// Let the deploy settle one scenario minute before baselining the
	// goroutine count: runtime loops, keepalives, and the observer
	// session are all up by then. The day starts at the minute's end,
	// and hour h ends h+1 hours after it, however long its calls took.
	dayStart := deployed.Add(time.Minute)
	if err := clock.SleepUntil(ctx, clk, dayStart); err != nil {
		return nil, err
	}
	goroutinesStart := runtime.NumGoroutine()

	rep := &dayReport{
		Scenario:        "dayinthelife",
		Speed:           clock.FormatSpeed(tb.TimeScale()),
		GoroutinesStart: goroutinesStart,
	}

	for hour := 0; hour < cfg.Hours; hour++ {
		h := hour % 24
		hourStart := clk.Now()
		if err := tb.Edit("lobby", map[string]any{
			"meta": map[string]any{"trigger_prob": diurnalProb(h)},
		}); err != nil {
			return nil, err
		}

		switch h {
		case 2:
			logf("02:00 nightly drill: session cut + lossy delivery + silent sensor\n")
			cr, err := tb.RunChaosPlan(ctx, nightDrillA)
			if err != nil {
				return nil, err
			}
			logf("      %d injected, %d reverted, %d skipped, in %v of scenario time\n",
				cr.Injected, cr.Reverted, len(cr.Skipped), clk.Since(hourStart))
		case 3:
			logf("03:00 nightly drill: node down + frozen actuator\n")
			cr, err := tb.RunChaosPlan(ctx, nightDrillB)
			if err != nil {
				return nil, err
			}
			logf("      %d injected, %d reverted, %d skipped, in %v of scenario time\n",
				cr.Injected, cr.Reverted, len(cr.Skipped), clk.Since(hourStart))
		case 13:
			logf("13:00 swarm burst: QoS-1 load with a shard kill mid-burst\n")
			sr, err := tb.RunSwarm(ctx, digibox.SwarmSpec{
				Shards: 2,
				Load: swarm.LoadSpec{
					Profile:  swarm.ProfileOpen,
					Devices:  200,
					Rate:     4000,
					Duration: 2 * time.Second,
					Workers:  2,
					QoS:      1,
					Subs:     1,
					Seed:     11,
				},
				// Shard 1 dies half a second into the burst and
				// revives a second later: the pool fails over to the
				// survivor, redelivers the journal, then re-anchors
				// back — and the revert counts the fault recovered.
				Kills: []digibox.ShardKill{{Shard: 1, At: 500 * time.Millisecond, For: time.Second}},
			})
			if err != nil {
				return nil, err
			}
			rep.SwarmPublished = sr.Published
			rep.SwarmExpected = sr.Expected
			rep.SwarmLost = sr.Lost
			rep.SwarmShed = sr.Shed
			rep.Failovers = sr.Failovers
			rep.RecoveryP99Ms = sr.RecoveryP99Ms
			logf("      published %d, delivered %d/%d, lost %d, failovers %d, in %v of scenario time\n",
				sr.Published, sr.Delivered, sr.Expected, sr.Lost, sr.Failovers, clk.Since(hourStart))
		}

		// An unpaced clock runs ahead while a call works in wall time
		// (a 2-s swarm burst can take over an hour of scenario time),
		// so an hour's calls may outlast it.
		if over := clk.Since(hourStart) - time.Hour; over > 0 {
			rep.OverrunMinutes += over.Minutes()
			logf("%02d:00 hour overran by %v\n", h, over)
		}
		if err := clock.SleepUntil(ctx, clk, dayStart.Add(time.Duration(hour+1)*time.Hour)); err != nil {
			return nil, err
		}
	}

	// The day's scenario span is measured here, before the settle:
	// WaitConverged's wall-clock grace lets an unpaced clock churn
	// extra virtual hours while it polls. Every recovery is scenario
	// time already (a severed runtime heals 50 ms after its cut).
	dayHours := clk.Since(deployed).Hours()

	// Settle: every injected fault must be recovered — by the engine's
	// scheduled revert or the runtime healing its severed broker link.
	_ = tb.WaitConverged(30*time.Minute, func() bool {
		return tb.Obs.Value(obs.FaultsRecoveredName) >= tb.Obs.Value(obs.FaultsInjectedName)
	})

	rep.FaultsInjected = tb.Obs.Value(obs.FaultsInjectedName)
	rep.FaultsRecovered = tb.Obs.Value(obs.FaultsRecoveredName)
	rep.GoroutinesEnd = runtime.NumGoroutine()
	rep.WallSec = time.Since(wallStart).Seconds()
	rep.ScenarioHours = dayHours
	if rep.WallSec > 0 {
		rep.CompressionX = dayHours * 3600 / rep.WallSec
	}
	if rep.ScenarioHours > 0 {
		rep.WallSecPerScenarioHour = rep.WallSec / rep.ScenarioHours
	}

	// Acceptance gates.
	gate := func(ok bool, format string, args ...any) {
		if !ok {
			rep.Gates = append(rep.Gates, fmt.Sprintf(format, args...))
		}
	}
	gate(rep.FaultsInjected > 0, "no faults injected: the nightly drills did not run")
	gate(rep.FaultsRecovered >= rep.FaultsInjected,
		"%.0f faults injected but only %.0f recovered", rep.FaultsInjected, rep.FaultsRecovered)
	if cfg.Hours > 13 { // the day reached the 13:00 swarm burst
		gate(rep.SwarmPublished > 0, "swarm burst published nothing")
		gate(rep.SwarmLost == 0, "%d QoS-1 deliveries lost", rep.SwarmLost)
		gate(rep.SwarmShed == 0, "%d messages shed from the failover journal", rep.SwarmShed)
		gate(rep.Failovers >= 1, "shard kill caused no failover")
	}
	// Goroutine growth must stay bounded over the day: leaked timers
	// or sessions would accumulate per scenario hour and show up here.
	gate(rep.GoroutinesEnd <= rep.GoroutinesStart+64,
		"goroutines grew %d -> %d over the day", rep.GoroutinesStart, rep.GoroutinesEnd)
	return rep, nil
}
