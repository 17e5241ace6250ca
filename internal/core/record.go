package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/replay"
)

// Record executes a scenario on the deterministic replay engine using
// this testbed's kind registry and returns the recorded run: the
// normalized trace plus its chained digest. The live testbed itself is
// untouched — recording is a pure, repeatable computation over the
// same digi/broker/scheduler code the testbed runs concurrently.
func (tb *Testbed) Record(sc *replay.Scenario) (*replay.Result, error) {
	return replay.Record(tb.Registry, sc)
}

// ReplayScenario re-executes a recorded scenario. With verify set the
// run's digest must match want byte-for-byte, otherwise the replay
// fails — the conformance check behind `dbox replay -verify`.
func (tb *Testbed) ReplayScenario(sc *replay.Scenario, want string, verify bool) (*replay.Result, error) {
	if verify {
		if want == "" {
			return nil, fmt.Errorf("core: replay verify requested but no expected digest given")
		}
		return replay.Verify(tb.Registry, sc, want)
	}
	return tb.Record(sc)
}

// scenarioRun tracks the scenario execution currently (or most
// recently) driven through RunScenario, for the /ctl/status timewarp
// section. The engine pointer reads live virtual-elapsed time while
// the run is in flight.
type scenarioRun struct {
	name      string
	speed     float64
	duration  time.Duration
	engine    *replay.Engine
	wallStart time.Time
	running   bool
	// finals, valid once running is false:
	wall    time.Duration
	digest  string
	records int
}

// ScenarioStatus is the timewarp view of the active or last scenario
// run: how much scenario time has been covered in how much wall time.
type ScenarioStatus struct {
	Name       string `json:"name"`
	Speed      string `json:"speed"`
	Running    bool   `json:"running"`
	ScenarioMs int64  `json:"scenario_ms"`
	WallMs     int64  `json:"wall_ms"`
	DurationMs int64  `json:"duration_ms"`
	// CompressionX is scenario time over wall time so far.
	CompressionX float64 `json:"compression_x"`
	Digest       string  `json:"digest,omitempty"`
	Records      int     `json:"records,omitempty"`
}

// ScenarioStatus snapshots the timewarp state; nil when RunScenario
// has never been called on this testbed.
func (tb *Testbed) ScenarioStatus() *ScenarioStatus {
	tb.scenMu.Lock()
	defer tb.scenMu.Unlock()
	run := tb.scenario
	if run == nil {
		return nil
	}
	st := &ScenarioStatus{
		Name:       run.name,
		Speed:      clock.FormatSpeed(run.speed),
		Running:    run.running,
		DurationMs: run.duration.Milliseconds(),
		Digest:     run.digest,
		Records:    run.records,
	}
	if run.running {
		st.ScenarioMs = run.engine.Elapsed().Milliseconds()
		st.WallMs = clock.System.Since(run.wallStart).Milliseconds()
	} else {
		st.ScenarioMs = run.duration.Milliseconds()
		st.WallMs = run.wall.Milliseconds()
	}
	if st.WallMs > 0 {
		st.CompressionX = float64(st.ScenarioMs) / float64(st.WallMs)
	}
	return st
}

// RunScenario executes a scenario on the deterministic engine at the
// given speed (0 falls back to the testbed's TimeScale; 1 is real
// time; clock.SpeedMax is unpaced). Cancelling ctx aborts the run.
// Unlike Record, the run is tracked: /ctl/status reports its
// scenario-time vs wall-time progress while it is in flight.
func (tb *Testbed) RunScenario(ctx context.Context, sc *replay.Scenario, speed float64) (*replay.Result, error) {
	if speed == 0 {
		speed = tb.TimeScale()
	}
	e, err := replay.NewEngineExec(tb.Registry, sc, replay.ExecOptions{Speed: speed})
	if err != nil {
		return nil, err
	}

	tb.scenMu.Lock()
	if tb.scenario != nil && tb.scenario.running {
		tb.scenMu.Unlock()
		return nil, fmt.Errorf("core: scenario %q already running", tb.scenario.name)
	}
	run := &scenarioRun{
		name:      sc.Name,
		speed:     e.Speed(),
		duration:  sc.Duration,
		engine:    e,
		wallStart: clock.System.Now(),
		running:   true,
	}
	tb.scenario = run
	tb.scenMu.Unlock()

	stop := make(chan struct{})
	defer close(stop)
	if ctx != nil && ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				e.Cancel(ctx.Err())
			case <-stop:
			}
		}()
	}

	res, err := e.Run()
	tb.scenMu.Lock()
	run.running = false
	run.wall = clock.System.Since(run.wallStart)
	if res != nil {
		run.digest = res.Digest
		run.records = len(res.Records)
	}
	tb.scenMu.Unlock()
	return res, err
}
