package ctl

import (
	"net/http"
	"sort"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/obs"
)

// startedAt formats the testbed start time for probe/status bodies
// ("" before Start).
func startedAt(tb *core.Testbed) string {
	at := tb.StartedAt()
	if at.IsZero() {
		return ""
	}
	return at.UTC().Format(time.RFC3339Nano)
}

// handleStatus is the dashboard's one-document view of the fleet:
// scene topology from the attach graph, kube pod phases, swarm shard
// health, chaos progress, and uptime/build info — everything the
// dashboard renders, in one GET.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	tb := s.TB
	st := tb.Stats()

	// Topology: one node per model, one edge per attach entry.
	type topoNode struct {
		Name  string `json:"name"`
		Type  string `json:"type"`
		Scene bool   `json:"scene"`
	}
	type topoEdge struct {
		Parent string `json:"parent"`
		Child  string `json:"child"`
	}
	var nodes []topoNode
	var edges []topoEdge
	for _, name := range tb.Names() {
		doc, _, ok := tb.Store.View(name)
		if !ok {
			continue
		}
		scene := false
		if k, ok := tb.Registry.Get(doc.Type()); ok {
			scene = k.Scene()
		}
		nodes = append(nodes, topoNode{Name: name, Type: doc.Type(), Scene: scene})
		for _, child := range doc.Attach() {
			edges = append(edges, topoEdge{Parent: name, Child: child})
		}
	}

	type podRow struct {
		Name     string `json:"name"`
		Phase    string `json:"phase"`
		Node     string `json:"node,omitempty"`
		Restarts int    `json:"restarts,omitempty"`
	}
	var pods []podRow
	for _, p := range tb.Cluster.ListPods() {
		pods = append(pods, podRow{
			Name:     p.Name,
			Phase:    string(p.Status.Phase),
			Node:     p.Status.NodeName,
			Restarts: p.Status.Restarts,
		})
	}
	sort.Slice(pods, func(i, j int) bool { return pods[i].Name < pods[j].Name })

	vals := tb.Obs.Values()
	shards, down := tb.SwarmHealth()
	if down == nil {
		down = []int{}
	}
	latency, _ := tb.Obs.LatencyClasses()

	body := map[string]any{
		"version":    tb.Version,
		"started_at": startedAt(tb),
		"uptime_sec": tb.Uptime().Seconds(),
		"time_scale": clock.FormatSpeed(tb.TimeScale()),

		"models":       st.Models,
		"pods_running": st.PodsRunning,
		"pods_pending": st.PodsPending,
		"violations":   st.Violations,
		"trace_len":    st.TraceLen,
		"broker_addr":  tb.BrokerAddr(),
		"rest_addr":    tb.RESTAddr(),

		"topology": map[string]any{"nodes": nodes, "edges": edges},
		"pods":     pods,
		"swarm": map[string]any{
			"shards":    shards,
			"down":      down,
			"failovers": vals["digibox_swarm_failovers_total"],
			"shed":      vals["digibox_swarm_shed_total"],
			"publishes": vals["digibox_swarm_publishes_total"],
			"stats":     tb.SwarmStats(),
		},
		"chaos": map[string]any{
			"injected":  vals[obs.FaultsInjectedName],
			"recovered": vals[obs.FaultsRecoveredName],
		},
		"events": map[string]any{
			"published":   vals["digibox_events_published_total"],
			"dropped":     vals["digibox_events_dropped_total"],
			"subscribers": tb.Bus.Subscribers(),
		},
		"latency": latency,
	}
	// Timewarp: scenario-time vs wall-time of the active (or most
	// recent) time-compressed scenario run, when there has been one.
	if ts := tb.ScenarioStatus(); ts != nil {
		body["timewarp"] = ts
	}
	writeJSON(w, http.StatusOK, body)
}
