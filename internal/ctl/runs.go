package ctl

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"time"

	"repro/internal/chaos"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/replay"
	"repro/internal/swarm"
	"repro/internal/trace"
)

// This file serves the verbs that run something on the testbed: run
// (a digi or a scenario), chaos, swarm, capture, record and replay.

// RunRequest is the body of POST /ctl/run. Two forms:
//
//   - {type, name, config}: run one mock or scene as a pod (the
//     original dbox run verb).
//   - {scenario, speed}: execute a whole scenario on the daemon's
//     deterministic engine, time-compressed at the given speed
//     ("max", "100", "2.5"; empty = max). The connection stays open
//     for the run's wall duration and the reply is a
//     RunScenarioResponse.
type RunRequest struct {
	Type   string         `json:"type,omitempty"`
	Name   string         `json:"name,omitempty"`
	Config map[string]any `json:"config,omitempty"`

	Scenario any    `json:"scenario,omitempty"`
	Speed    string `json:"speed,omitempty"`
}

// RunScenarioResponse is the reply of the scenario form of
// POST /ctl/run: the digest plus the timewarp accounting.
type RunScenarioResponse struct {
	Scenario   string `json:"scenario"`
	Records    int    `json:"records"`
	Digest     string `json:"digest"`
	Speed      string `json:"speed"`
	ScenarioMs int64  `json:"scenario_ms"`
	WallMs     int64  `json:"wall_ms"`
	// CompressionX is scenario time over wall time actually achieved.
	CompressionX float64 `json:"compression_x"`
}

// ChaosRequest is the body of POST /ctl/chaos: a fault plan in its
// generic-value encoding (chaos.Plan.Value), applied to the running
// testbed. The response is the engine's chaos.Report.
type ChaosRequest struct {
	Plan any `json:"plan"`
}

// SwarmRequest is the body of POST /ctl/swarm: one swarm load run.
// Durations travel as seconds so the request stays tool-friendly; zero
// fields take the swarm defaults. The response is the swarm.Report.
type SwarmRequest struct {
	Profile     string  `json:"profile,omitempty"`
	Devices     int     `json:"devices,omitempty"`
	Rate        float64 `json:"rate,omitempty"`
	PeriodSec   float64 `json:"period_sec,omitempty"`
	DurationSec float64 `json:"duration_sec,omitempty"`
	Workers     int     `json:"workers,omitempty"`
	Seed        int64   `json:"seed,omitempty"`
	QoS         int     `json:"qos,omitempty"`
	Subscribers int     `json:"subscribers,omitempty"`
	Prefix      string  `json:"prefix,omitempty"`
	Shards      int     `json:"shards,omitempty"`
	// Kills is the failover-drill schedule (`dbox swarm -kill-shard`).
	Kills []SwarmKill `json:"kills,omitempty"`
	// DeviceProfile is an optional device-population profile in its
	// generic-value encoding (profile.Profile.Value); setting it makes
	// the run profiled (`dbox swarm -profile FILE`).
	DeviceProfile any `json:"device_profile,omitempty"`
}

// SwarmKill schedules one shard crash: shard Shard dies at AtSec into
// the run; with ForSec > 0 it revives that many seconds later.
type SwarmKill struct {
	Shard  int     `json:"shard"`
	AtSec  float64 `json:"at_sec"`
	ForSec float64 `json:"for_sec,omitempty"`
}

// seconds converts a wire duration to the nearest nanosecond:
// truncating 0.29 s would give a period 1 ns short, and a closed run
// one message more than its schedule.
func seconds(s float64) time.Duration {
	return time.Duration(math.Round(s * float64(time.Second)))
}

// Spec converts the wire request into the core spec — the one place
// the request's fields map onto swarm.LoadSpec, for the swarm and
// capture handlers alike.
func (r SwarmRequest) Spec() (core.SwarmSpec, error) {
	if r.QoS != 0 && r.QoS != 1 {
		return core.SwarmSpec{}, fmt.Errorf("ctl: swarm qos must be 0 or 1, got %d", r.QoS)
	}
	var kills []core.ShardKill
	for _, k := range r.Kills {
		kills = append(kills, core.ShardKill{Shard: k.Shard, At: seconds(k.AtSec), For: seconds(k.ForSec)})
	}
	var prof *profile.Profile
	if r.DeviceProfile != nil {
		p, err := profile.FromValue(r.DeviceProfile)
		if err != nil {
			return core.SwarmSpec{}, fmt.Errorf("ctl: device_profile: %w", err)
		}
		prof = p
	}
	return core.SwarmSpec{
		Load: swarm.LoadSpec{
			Profile:       swarm.Profile(r.Profile),
			Devices:       r.Devices,
			Rate:          r.Rate,
			Period:        seconds(r.PeriodSec),
			Duration:      seconds(r.DurationSec),
			Workers:       r.Workers,
			Seed:          r.Seed,
			QoS:           byte(r.QoS),
			Subs:          r.Subscribers,
			Prefix:        r.Prefix,
			DeviceProfile: prof,
		},
		Shards: r.Shards,
		Kills:  kills,
	}, nil
}

// CaptureRequest is the body of POST /ctl/capture: record traffic
// into a fitted device profile. With Swarm set the capture drives
// that swarm load and taps it; otherwise it fits what the scene's
// digis sent in DurationSec of scenario time, read from the trace.
type CaptureRequest struct {
	DurationSec float64       `json:"duration_sec,omitempty"`
	Filter      string        `json:"filter,omitempty"`
	Name        string        `json:"name,omitempty"`
	Seed        int64         `json:"seed,omitempty"`
	Commit      bool          `json:"commit,omitempty"`
	Swarm       *SwarmRequest `json:"swarm,omitempty"`
}

// CaptureResponse carries the fitted profile (generic-value encoding)
// plus the observation accounting; Version is set when the request
// asked for a repository commit.
type CaptureResponse struct {
	Profile  any              `json:"profile"`
	Messages int64            `json:"messages"`
	Classes  map[string]int64 `json:"classes"`
	Report   *swarm.Report    `json:"report,omitempty"`
	Version  string           `json:"version,omitempty"`
}

// ReplayRequest is the body of POST /ctl/replay. Two forms:
//
//   - {trace, version, speed}: replay a shared trace by repository
//     name against the live testbed, at the given speed (0 = fast).
//   - {scenario, digest, verify}: re-execute a recorded scenario on
//     the deterministic engine (replay.Scenario in its generic-value
//     encoding); with verify set the run's chained digest must match
//     the expected one.
type ReplayRequest struct {
	Trace   string  `json:"trace,omitempty"`
	Version string  `json:"version,omitempty"`
	Speed   float64 `json:"speed,omitempty"`

	Scenario any    `json:"scenario,omitempty"`
	Digest   string `json:"digest,omitempty"`
	Verify   bool   `json:"verify,omitempty"`
}

// RecordRequest is the body of POST /ctl/record: execute a scenario on
// the deterministic replay engine (the scenario in its generic-value
// encoding, replay.Scenario.Value) and return the run's digest. With
// Archive set the response carries the full replay archive
// (base64-encoded zip) ready to save with `dbox record -o`.
type RecordRequest struct {
	Scenario any  `json:"scenario"`
	Archive  bool `json:"archive,omitempty"`
}

// RecordResponse is the reply of POST /ctl/record and of the scenario
// form of POST /ctl/replay.
type RecordResponse struct {
	Scenario string `json:"scenario"`
	Records  int    `json:"records"`
	Digest   string `json:"digest"`
	Archive  []byte `json:"archive,omitempty"`
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Scenario != nil {
		s.runScenario(w, r, req)
		return
	}
	if err := s.TB.Run(req.Type, req.Name, req.Config); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "running", "name": req.Name})
}

// runScenario is the time-compressed scenario form of /ctl/run: the
// run executes at the requested speed (closing the connection cancels
// it) and the reply carries the digest plus timewarp accounting.
func (s *Server) runScenario(w http.ResponseWriter, r *http.Request, req RunRequest) {
	sc, err := replay.ScenarioFromValue(req.Scenario)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	speed := clock.SpeedMax
	if req.Speed != "" {
		if speed, err = clock.ParseSpeed(req.Speed); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
	}
	res, err := s.TB.RunScenario(r.Context(), sc, speed)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	resp := RunScenarioResponse{
		Scenario:   sc.Name,
		Records:    len(res.Records),
		Digest:     res.Digest,
		Speed:      clock.FormatSpeed(res.Speed),
		ScenarioMs: sc.Duration.Milliseconds(),
		WallMs:     res.Wall.Milliseconds(),
	}
	if resp.WallMs > 0 {
		resp.CompressionX = float64(resp.ScenarioMs) / float64(resp.WallMs)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleChaos runs a fault plan to completion against the testbed; the
// connection stays open for the plan's duration (dbox chaos run).
func (s *Server) handleChaos(w http.ResponseWriter, r *http.Request) {
	var req ChaosRequest
	if !decode(w, r, &req) {
		return
	}
	plan, err := chaos.PlanFromValue(req.Plan)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if err := plan.Validate(); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	rep, err := s.TB.RunChaosPlan(r.Context(), plan)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// handleSwarm runs a swarm load session to completion; like chaos, the
// connection stays open for the run's duration (dbox swarm -remote).
func (s *Server) handleSwarm(w http.ResponseWriter, r *http.Request) {
	var req SwarmRequest
	if !decode(w, r, &req) {
		return
	}
	spec, err := req.Spec()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	rep, err := s.TB.RunSwarm(r.Context(), spec)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// handleCapture records traffic into a fitted device profile — the
// `dbox capture -remote` path. Like swarm, the connection stays open
// for the capture window.
func (s *Server) handleCapture(w http.ResponseWriter, r *http.Request) {
	var req CaptureRequest
	if !decode(w, r, &req) {
		return
	}
	spec := core.CaptureSpec{
		Duration: time.Duration(req.DurationSec * float64(time.Second)),
		Filter:   req.Filter,
		Name:     req.Name,
		Seed:     req.Seed,
	}
	if req.Swarm != nil {
		sw, err := req.Swarm.Spec()
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		spec.Swarm = &sw
	}
	res, err := s.TB.Capture(r.Context(), spec)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	resp := CaptureResponse{
		Profile:  res.Profile.Value(),
		Messages: res.Messages,
		Classes:  res.Classes,
		Report:   res.Report,
	}
	if req.Commit {
		ver, err := s.TB.CommitProfile(res.Profile.Name, res.Profile)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		resp.Version = ver
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleRecord executes a scenario on the deterministic replay engine
// and returns its digest (and optionally the full replay archive).
func (s *Server) handleRecord(w http.ResponseWriter, r *http.Request) {
	var req RecordRequest
	if !decode(w, r, &req) {
		return
	}
	sc, err := replay.ScenarioFromValue(req.Scenario)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	res, err := s.TB.Record(sc)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	resp := RecordResponse{Scenario: sc.Name, Records: len(res.Records), Digest: res.Digest}
	if req.Archive {
		// The recorded run's archive: its records plus the scenario
		// that re-executes them, on the engine's virtual timeline.
		var buf bytes.Buffer
		data, err := res.Scenario.Marshal()
		if err == nil {
			err = trace.WriteArchive(&buf, clock.Epoch, res.Records, data)
		}
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		resp.Archive = buf.Bytes()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleReplay(w http.ResponseWriter, r *http.Request) {
	var req ReplayRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Scenario != nil {
		sc, err := replay.ScenarioFromValue(req.Scenario)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		res, err := s.TB.ReplayScenario(sc, req.Digest, req.Verify)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, RecordResponse{
			Scenario: sc.Name, Records: len(res.Records), Digest: res.Digest,
		})
		return
	}
	recs, err := s.TB.PullTrace(req.Trace, req.Version)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if err := s.TB.Replay(r.Context(), recs, req.Speed); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "replayed", "records": len(recs)})
}
