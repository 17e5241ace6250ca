package ctl

import (
	"net/http"

	"repro/internal/obs"
)

// This file exposes the testbed's metrics registry over the control
// API: GET /ctl/metrics serves the Prometheus text exposition format
// (scrapeable by stock tooling), GET /ctl/metrics.json serves the
// structured snapshot that dbox top renders.

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	s.TB.Obs.WriteText(w)
}

func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.TB.Obs.Snapshot())
}

// MetricsText fetches the Prometheus text exposition.
func (c *Client) MetricsText() (string, error) {
	var raw []byte
	if err := c.get("/ctl/metrics", &raw); err != nil {
		return "", err
	}
	return string(raw), nil
}

// Metrics fetches the structured metrics snapshot.
func (c *Client) Metrics() (*obs.Snapshot, error) {
	var snap obs.Snapshot
	if err := c.get("/ctl/metrics.json", &snap); err != nil {
		return nil, err
	}
	return &snap, nil
}
