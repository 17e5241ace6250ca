package swarm

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/broker"
)

// Report is the machine-readable result of one swarm run — the
// BENCH_swarm.json payload. Counters are exact (atomics, not
// samples); latency quantiles come from the obs span tracer and carry
// their sample count so readers can judge confidence.
type Report struct {
	// Configuration the run actually used (after defaulting).
	Profile     string  `json:"profile"`
	Devices     int     `json:"devices"`
	Shards      int     `json:"shards"`
	Workers     int     `json:"workers"`
	Subscribers int     `json:"subscribers"`
	QoS         int     `json:"qos"`
	Seed        int64   `json:"seed"`
	RateTarget  float64 `json:"rate_target,omitempty"`  // open preset target msgs/s
	PeriodSec   float64 `json:"period_sec,omitempty"`   // closed preset per-device period
	ProfileName string  `json:"profile_name,omitempty"` // device profile driving a profiled run
	DurationSec float64 `json:"duration_sec"`           // measured wall-clock run length

	// Exact message accounting. Expected = Published × Subscribers
	// (every consumer holds a wildcard matching every device topic);
	// Lost must be 0 at QoS 1.
	Published int64 `json:"published"`
	Expected  int64 `json:"expected"`
	Delivered int64 `json:"delivered"`
	Lost      int64 `json:"lost"`
	// Dropped counts QoS 0 messages shed on slow wire sessions — the
	// back-pressure signal, distinct from QoS 1 loss.
	Dropped        int64 `json:"dropped"`
	BridgeForwards int64 `json:"bridge_forwards"`

	PublishRate  float64 `json:"publish_rate"`  // achieved publishes/s
	DeliveryRate float64 `json:"delivery_rate"` // achieved deliveries/s

	// Publish→deliver latency from sampled obs spans (1-in-8 by
	// default) over the swarm topic class.
	LatencySamples uint64  `json:"latency_samples"`
	P50Ms          float64 `json:"p50_ms"`
	P99Ms          float64 `json:"p99_ms"`

	// Self-healing columns: shard takeovers during the run, messages
	// redelivered from the failover journal, messages shed from it,
	// and detection→completion recovery quantiles.
	Failovers     int64   `json:"failovers"`
	Redelivered   int64   `json:"redelivered"`
	Shed          int64   `json:"shed"`
	RecoveryP50Ms float64 `json:"recovery_p50_ms,omitempty"`
	RecoveryP99Ms float64 `json:"recovery_p99_ms,omitempty"`
	// ShardsDown lists shards still down at report time (killed but
	// never revived).
	ShardsDown []int `json:"shards_down,omitempty"`

	PerShard []broker.Stats `json:"per_shard"`
	// Placements maps generator pod name → kube node, recorded when
	// the run went through Testbed.RunSwarm's spread scheduling.
	Placements map[string]string `json:"placements,omitempty"`
}

// Gate checks the report against the swarm-gate CI criteria: zero
// QoS 1 loss, and (when maxP99Ms > 0) a p99 publish→deliver latency
// at or under the floor. It returns nil when the run passes.
func (r *Report) Gate(maxP99Ms float64) error {
	if r.Lost > 0 {
		return fmt.Errorf("swarm: %d of %d expected deliveries lost at QoS %d", r.Lost, r.Expected, r.QoS)
	}
	if maxP99Ms > 0 && r.P99Ms > maxP99Ms {
		return fmt.Errorf("swarm: p99 latency %.2f ms over the %.2f ms floor", r.P99Ms, maxP99Ms)
	}
	return nil
}

// quantile returns the nearest-rank q-quantile of xs, or 0 when xs is
// empty. Exact over the full sample set — failover counts are small,
// so no sketch is needed.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q * float64(len(s)-1))
	if frac := q*float64(len(s)-1) - float64(i); frac > 0 && i+1 < len(s) {
		return s[i] + frac*(s[i+1]-s[i])
	}
	return s[i]
}

// GateRecovery checks the failover-drill CI criteria on top of Gate:
// the run must have survived at least wantFailovers shard takeovers,
// shed nothing from the bounded journal, and (when maxRecoveryP99Ms
// > 0) recovered within the p99 bound.
func (r *Report) GateRecovery(wantFailovers int64, maxRecoveryP99Ms float64) error {
	if r.Failovers < wantFailovers {
		return fmt.Errorf("swarm: %d failover(s) completed, drill expected %d", r.Failovers, wantFailovers)
	}
	if r.Shed > 0 {
		return fmt.Errorf("swarm: %d message(s) shed from the failover journal", r.Shed)
	}
	if maxRecoveryP99Ms > 0 && r.RecoveryP99Ms > maxRecoveryP99Ms {
		return fmt.Errorf("swarm: recovery p99 %.2f ms over the %.2f ms bound", r.RecoveryP99Ms, maxRecoveryP99Ms)
	}
	return nil
}

// WriteJSON writes the report, indented, to path.
func (r *Report) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
