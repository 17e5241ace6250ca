// Package ctl implements the dboxd control API: the HTTP surface the
// dbox command-line tool (Table 1) drives a running testbed through.
// The device-facing REST gateway (internal/rest) serves applications;
// this API serves the developer.
package ctl

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/chaos"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dash"
	"repro/internal/profile"
	"repro/internal/replay"
	"repro/internal/swarm"
	"repro/internal/vet"
)

// Server exposes a testbed over HTTP.
type Server struct {
	TB *core.Testbed

	httpServer *http.Server
	listener   net.Listener
}

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

// NameRequest is the body of verbs addressing one digi.
type NameRequest struct {
	Name string `json:"name"`
}

// AttachRequest is the body of POST /ctl/attach.
type AttachRequest struct {
	Child  string `json:"child"`
	Parent string `json:"parent"`
	Detach bool   `json:"detach,omitempty"`
}

// EditRequest is the body of POST /ctl/edit.
type EditRequest struct {
	Name  string         `json:"name"`
	Patch map[string]any `json:"patch"`
}

// CommitRequest is the body of POST /ctl/commit.
type CommitRequest struct {
	Name string `json:"name"`
	// Kind commits a type definition instead of a scene setup.
	Kind bool `json:"kind,omitempty"`
	// Force bypasses the vet pre-commit gate ("dbox commit -f").
	Force bool `json:"force,omitempty"`
}

// VetRequest is the body of POST /ctl/vet: analyze one committed setup
// (empty version = latest) or, with All, every committed setup.
type VetRequest struct {
	Name    string `json:"name,omitempty"`
	Version string `json:"version,omitempty"`
	All     bool   `json:"all,omitempty"`
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
// that swarm load and taps it; otherwise the live broker is tapped
// for DurationSec of scenario time.
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

// ShareRequest is the body of POST /ctl/push and /ctl/pull.
type ShareRequest struct {
	Name string `json:"name"`
}

// RecreateRequest is the body of POST /ctl/recreate.
type RecreateRequest struct {
	Name    string `json:"name"`
	Version string `json:"version,omitempty"`
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

// CheckTraceRequest is the body of POST /ctl/checktrace: evaluate the
// registered scene properties offline against a shared trace.
type CheckTraceRequest struct {
	Trace   string `json:"trace"`
	Version string `json:"version,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func decode[T any](w http.ResponseWriter, r *http.Request, dst *T) bool {
	data, err := io.ReadAll(io.LimitReader(r.Body, 8<<20))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return false
	}
	if err := json.Unmarshal(data, dst); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err))
		return false
	}
	return true
}

// Handler returns the control API handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /ctl/status", s.handleStatus)
	mux.HandleFunc("GET /ctl/events", s.handleEvents)
	mux.Handle("GET /ctl/dash", http.RedirectHandler("/ctl/dash/", http.StatusMovedPermanently))
	mux.Handle("GET /ctl/dash/", http.StripPrefix("/ctl/dash/", dash.Handler()))
	mux.HandleFunc("GET /ctl/metrics", s.handleMetrics)
	mux.HandleFunc("GET /ctl/metrics.json", s.handleMetricsJSON)
	mux.HandleFunc("GET /ctl/list", s.handleList)
	mux.HandleFunc("POST /ctl/run", s.handleRun)
	mux.HandleFunc("POST /ctl/stop", s.handleStop)
	mux.HandleFunc("GET /ctl/check/{name}", s.handleCheck)
	mux.HandleFunc("GET /ctl/watch/{name}", s.handleWatch)
	mux.HandleFunc("POST /ctl/attach", s.handleAttach)
	mux.HandleFunc("POST /ctl/edit", s.handleEdit)
	mux.HandleFunc("POST /ctl/commit", s.handleCommit)
	mux.HandleFunc("POST /ctl/vet", s.handleVet)
	mux.HandleFunc("POST /ctl/push", s.handlePush)
	mux.HandleFunc("POST /ctl/pull", s.handlePull)
	mux.HandleFunc("POST /ctl/recreate", s.handleRecreate)
	mux.HandleFunc("POST /ctl/chaos", s.handleChaos)
	mux.HandleFunc("POST /ctl/swarm", s.handleSwarm)
	mux.HandleFunc("POST /ctl/capture", s.handleCapture)
	mux.HandleFunc("POST /ctl/record", s.handleRecord)
	mux.HandleFunc("POST /ctl/replay", s.handleReplay)
	mux.HandleFunc("POST /ctl/checktrace", s.handleCheckTrace)
	mux.HandleFunc("GET /ctl/trace", s.handleTraceDownload)
	mux.HandleFunc("POST /ctl/trace/push", s.handleTracePush)
	return mux
}

// ListenAndServe binds addr and serves in the background.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.listener = ln
	s.httpServer = &http.Server{Handler: s.Handler()}
	go s.httpServer.Serve(ln)
	return nil
}

// Addr returns the bound address.
func (s *Server) Addr() string {
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}

// Close stops the control server (not the testbed).
func (s *Server) Close() error {
	if s.httpServer == nil {
		return nil
	}
	return s.httpServer.Close()
}

// handleHealthz is the liveness probe: the process is up and serving,
// so the answer is always 200. Degraded state belongs to /readyz.
// Both probes answer JSON with the build version and start time so a
// fleet operator can correlate behaviour with builds from the probe
// alone.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":         true,
		"version":    s.TB.Version,
		"started_at": startedAt(s.TB),
	})
}

// handleReadyz is the readiness probe: 200 while every broker shard of
// the swarm run in flight (if any) is healthy, 503 with the down list
// while a failover is pending or a shard stays dead. A testbed with no
// swarm run is trivially ready.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	shards, down := s.TB.SwarmHealth()
	body := map[string]any{
		"ready":      len(down) == 0,
		"shards":     shards,
		"version":    s.TB.Version,
		"started_at": startedAt(s.TB),
	}
	if len(down) > 0 {
		body["down"] = down
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"models": s.TB.Names()})
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

func (s *Server) handleStop(w http.ResponseWriter, r *http.Request) {
	var req NameRequest
	if !decode(w, r, &req) {
		return
	}
	if err := s.TB.StopDigi(req.Name); err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "stopped", "name": req.Name})
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	doc, err := s.TB.Check(r.PathValue("name"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any(doc))
}

// handleWatch streams model updates as JSONL until the client goes
// away or max_updates is reached.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if _, err := s.TB.Check(name); err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	maxUpdates := 0
	if v, err := strconv.Atoi(r.URL.Query().Get("max")); err == nil && v > 0 {
		maxUpdates = v
	}
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	watcher := s.TB.Watch(name)
	defer watcher.Close()
	enc := json.NewEncoder(w)
	sent := 0
	for {
		select {
		case u, ok := <-watcher.C:
			if !ok {
				return
			}
			out := map[string]any{"gen": u.Gen, "deleted": u.Deleted, "doc": map[string]any(u.Doc)}
			if err := enc.Encode(out); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			sent++
			if maxUpdates > 0 && sent >= maxUpdates {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleAttach(w http.ResponseWriter, r *http.Request) {
	var req AttachRequest
	if !decode(w, r, &req) {
		return
	}
	var err error
	if req.Detach {
		err = s.TB.Detach(req.Child, req.Parent)
	} else {
		err = s.TB.Attach(req.Child, req.Parent)
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleEdit(w http.ResponseWriter, r *http.Request) {
	var req EditRequest
	if !decode(w, r, &req) {
		return
	}
	if err := s.TB.Edit(req.Name, req.Patch); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleCommit(w http.ResponseWriter, r *http.Request) {
	var req CommitRequest
	if !decode(w, r, &req) {
		return
	}
	var version string
	var err error
	switch {
	case req.Kind:
		version, err = s.TB.CommitKind(req.Name)
	case req.Force:
		version, err = s.TB.CommitSceneForce(req.Name)
	default:
		version, err = s.TB.CommitScene(req.Name)
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"version": version})
}

func (s *Server) handleVet(w http.ResponseWriter, r *http.Request) {
	var req VetRequest
	if !decode(w, r, &req) {
		return
	}
	results := map[string][]vet.Diagnostic{}
	if req.All {
		all, err := s.TB.VetAll()
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		results = all
	} else {
		diags, err := s.TB.VetSetup(req.Name, req.Version)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		results[req.Name] = diags
	}
	writeJSON(w, http.StatusOK, map[string]any{"results": results})
}

func (s *Server) handlePush(w http.ResponseWriter, r *http.Request) {
	var req ShareRequest
	if !decode(w, r, &req) {
		return
	}
	if err := s.TB.Push(req.Name); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "pushed"})
}

func (s *Server) handlePull(w http.ResponseWriter, r *http.Request) {
	var req ShareRequest
	if !decode(w, r, &req) {
		return
	}
	if err := s.TB.Pull(req.Name); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "pulled"})
}

func (s *Server) handleRecreate(w http.ResponseWriter, r *http.Request) {
	var req RecreateRequest
	if !decode(w, r, &req) {
		return
	}
	if err := s.TB.Recreate(req.Name, req.Version); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "recreated"})
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
		data, err := replay.ArchiveBytes(res)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		resp.Archive = data
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
	if err := s.TB.Replay(recs, req.Speed); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "replayed", "records": len(recs)})
}

func (s *Server) handleCheckTrace(w http.ResponseWriter, r *http.Request) {
	var req CheckTraceRequest
	if !decode(w, r, &req) {
		return
	}
	recs, err := s.TB.PullTrace(req.Trace, req.Version)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	violations, err := s.TB.CheckTraceRecords(recs)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	out := make([]map[string]any, 0, len(violations))
	for _, v := range violations {
		out = append(out, map[string]any{
			"property": v.Property,
			"detail":   v.Detail,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"records":    len(recs),
		"violations": out,
	})
}

func (s *Server) handleTraceDownload(w http.ResponseWriter, r *http.Request) {
	data, err := s.TB.Log.ArchiveBytes()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/zip")
	w.Header().Set("Content-Disposition", `attachment; filename="trace.zip"`)
	w.Write(data)
}

func (s *Server) handleTracePush(w http.ResponseWriter, r *http.Request) {
	var req ShareRequest
	if !decode(w, r, &req) {
		return
	}
	version, err := s.TB.PushTrace(req.Name)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"version": version})
}
