// Package ctl implements the dboxd control API: the HTTP surface the
// dbox command-line tool (Table 1) drives a running testbed through.
// The device-facing REST gateway (internal/rest) serves applications;
// this API serves the developer.
package ctl

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"

	"repro/internal/core"
	"repro/internal/dash"
)

// Server exposes a testbed over HTTP.
type Server struct {
	TB *core.Testbed

	httpServer *http.Server
	listener   net.Listener
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
