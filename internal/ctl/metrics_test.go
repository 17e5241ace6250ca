package ctl

import (
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/obs"
)

// startMetricsServer is startServer with the full observability stack:
// the runtime publishes over a real MQTT session and the wildcard
// observer closes delivery spans, so e2e latency histograms fill.
func startMetricsServer(t *testing.T) (*core.Testbed, *Client) {
	t.Helper()
	tb, err := NewTestbed(core.Options{RuntimeMQTT: true, Observer: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Stop)
	// The ensembles here publish a handful of messages; trace every one
	// instead of the production 1-in-8 sample so spans close promptly.
	tb.Tracer.SetSampleInterval(1)
	srv := &Server{TB: tb}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return tb, &Client{Base: "http://" + srv.Addr()}
}

// sampleValue returns the first sample matching name, ok=false if
// absent.
func sampleValue(samples []obs.Sample, name string) (float64, bool) {
	for _, s := range samples {
		if s.Name == name {
			return s.Value, true
		}
	}
	return 0, false
}

// TestMetricsExposition scrapes /ctl/metrics before and after a chaos
// drill: the text must parse back, families must span all four
// instrumented layers, and counters must be monotone across the drill.
func TestMetricsExposition(t *testing.T) {
	_, cli := startMetricsServer(t)
	if err := cli.Run("Occupancy", "O1",
		map[string]any{"interval_ms": int64(50), "trigger_prob": 1.0}); err != nil {
		t.Fatal(err)
	}
	if err := cli.Run("Lamp", "L1", nil); err != nil {
		t.Fatal(err)
	}

	// Let the sensor publish a few status messages.
	deadline := time.Now().Add(10 * time.Second)
	var before []obs.Sample
	for {
		text, err := cli.MetricsText()
		if err != nil {
			t.Fatal(err)
		}
		before, _, err = obs.ParseText(text)
		if err != nil {
			t.Fatalf("scrape did not parse: %v", err)
		}
		if v, _ := sampleValue(before, "digibox_broker_publishes_total"); v >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no broker publishes observed")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// A short drill: drop the runtime session and half the traffic.
	rep, err := cli.ChaosRun(&chaos.Plan{
		Name: "scrape-drill",
		Seed: 7,
		Events: []chaos.Event{
			{At: 10 * time.Millisecond, Fault: chaos.FaultDisconnect, Client: "digi-runtime"},
			{At: 20 * time.Millisecond, Fault: chaos.FaultDrop, Topic: "digibox/#",
				Rate: 0.5, For: 200 * time.Millisecond},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Injected != 2 {
		t.Fatalf("injected = %d, want 2", rep.Injected)
	}

	text, err := cli.MetricsText()
	if err != nil {
		t.Fatal(err)
	}
	after, families, err := obs.ParseText(text)
	if err != nil {
		t.Fatalf("scrape did not parse: %v", err)
	}
	if len(families) < 12 {
		t.Fatalf("family count = %d, want >= 12:\n%s", len(families), strings.Join(families, "\n"))
	}
	layers := map[string]bool{}
	for _, f := range families {
		for _, prefix := range []string{"digibox_broker_", "digibox_kube_", "digibox_digi_", "digibox_faults_", "digibox_e2e_"} {
			if strings.HasPrefix(f, prefix) {
				layers[prefix] = true
			}
		}
	}
	for _, prefix := range []string{"digibox_broker_", "digibox_kube_", "digibox_digi_", "digibox_faults_", "digibox_e2e_"} {
		if !layers[prefix] {
			t.Errorf("no family from layer %s*:\n%s", prefix, strings.Join(families, "\n"))
		}
	}

	// Counters must be monotone across the drill, and the drill itself
	// must have moved the fault counters.
	for _, name := range []string{
		"digibox_broker_publishes_total",
		"digibox_broker_deliveries_total",
		"digibox_kube_pods_created_total",
	} {
		b, okB := sampleValue(before, name)
		a, okA := sampleValue(after, name)
		if !okB || !okA {
			t.Errorf("%s missing from scrape (before=%v after=%v)", name, okB, okA)
			continue
		}
		if a < b {
			t.Errorf("%s went backwards: %v -> %v", name, b, a)
		}
	}
	injected := 0.0
	for _, s := range after {
		if s.Name == obs.FaultsInjectedName {
			injected += s.Value
		}
	}
	if injected < 2 {
		t.Errorf("faults injected = %v, want >= 2", injected)
	}
}

// TestMetricsJSON checks the structured endpoint renders the same
// registry, with quantiles precomputed on histograms.
func TestMetricsJSON(t *testing.T) {
	_, cli := startMetricsServer(t)
	if err := cli.Run("Occupancy", "O1",
		map[string]any{"interval_ms": int64(50), "trigger_prob": 1.0}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap, err := cli.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		if fs := snap.Family("digibox_e2e_latency_seconds"); fs != nil && len(fs.Metrics) > 0 {
			m := fs.Metrics[0]
			if m.Count == 0 || m.P50 <= 0 || m.P99 < m.P50 {
				t.Fatalf("e2e latency quantiles: %+v", m)
			}
			if snap.Family("digibox_broker_publishes_total") == nil {
				t.Fatal("broker family missing from JSON snapshot")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no e2e spans completed")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
