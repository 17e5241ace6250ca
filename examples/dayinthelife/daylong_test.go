//go:build daylong

package main

// The daylong tier: the full live drill, gated. Excluded from tier-1
// by the build tag; CI's timewarp-gate job runs it with
//
//	go test -race -tags daylong ./examples/dayinthelife
//
// so a 24-hour building day is exercised under the race detector on
// every push without slowing the default test run.

import (
	"testing"
	"time"

	"repro/internal/clock"
)

// TestDayInTheLife runs 24 scenario-hours unpaced on a live testbed —
// diurnal load, two nightly chaos drills, a midday swarm burst with a
// shard kill — and holds the drill to its acceptance gates: every
// fault recovered, zero QoS-1 loss, at least one failover, bounded
// goroutine growth, a day of 24 hours plus its one-minute lead-in
// (within 5 scenario-minutes), and under two minutes of wall time.
func TestDayInTheLife(t *testing.T) {
	start := time.Now()
	rep, err := runDay(dayConfig{Speed: clock.SpeedMax, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range rep.Gates {
		t.Errorf("gate failed: %s", g)
	}
	want := 24*time.Hour + time.Minute
	if got := time.Duration(rep.ScenarioHours * float64(time.Hour)); got < want-5*time.Minute || got > want+5*time.Minute {
		t.Errorf("the day spans %v of scenario time, want %v ± 5m (hours overran by %.1f min)", got, want, rep.OverrunMinutes)
	}
	wall := time.Since(start)
	if wall > 2*time.Minute {
		t.Errorf("24 scenario-hours took %v of wall time (budget 2m)", wall)
	}
	t.Logf("day: %.3f scenario-hours (%.1f min overrun) in %.2fs wall (%.0fx), faults %0.f/%0.f, swarm %d/%d delivered, %d failover(s)",
		rep.ScenarioHours, rep.OverrunMinutes, rep.WallSec, rep.CompressionX,
		rep.FaultsRecovered, rep.FaultsInjected,
		rep.SwarmPublished-rep.SwarmLost, rep.SwarmExpected, rep.Failovers)
}
