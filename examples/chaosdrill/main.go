// Chaosdrill: fault injection and self-healing in one session.
//
// It deploys the quickstart ensemble, then runs a seeded chaos plan
// against it — the digi runtime's broker link severed, lossy delivery,
// a node failure, a sensor dropout — while a scene workload keeps
// driving the ensemble. At plan end the runtime's link has healed, the
// pods are rescheduled, and the drill prints the deterministic fault
// trace.
//
//	go run ./examples/chaosdrill
package main

import (
	"fmt"
	"log"
	"time"

	digibox "repro"
	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/vet/vettest"
)

func main() {
	// Observer: a wildcard MQTT session closes publish→deliver spans,
	// so the e2e latency histograms fill even with no app subscribed.
	tb, err := digibox.New(digibox.Options{Observer: true})
	if err != nil {
		log.Fatal(err)
	}
	// The drill routes a few dozen messages; trace every one (the
	// production default samples 1-in-8) so the latency table fills.
	tb.Tracer.SetSampleInterval(1)
	if err := tb.Start(); err != nil {
		log.Fatal(err)
	}
	defer tb.Stop()
	must(vettest.Deploy(tb, digis))

	fmt.Printf("== running chaos plan %q (seed %d, %d events)\n",
		plan.Name, plan.Seed, len(plan.Events))
	rep, err := tb.RunWithChaos(plan, func() error {
		// The workload: a scene event fired mid-plan must still win
		// through once the faults revert.
		time.Sleep(300 * time.Millisecond)
		if err := tb.Edit("MeetingRoom", map[string]any{"human_presence": true}); err != nil {
			return err
		}
		return tb.WaitConverged(15*time.Second, func() bool {
			l1, _ := tb.Check("L1")
			return l1 != nil && l1.GetString("power.status") == "on"
		})
	})
	must(err)

	fmt.Printf("== plan done: %d injected, %d reverted, %d skipped\n",
		rep.Injected, rep.Reverted, len(rep.Skipped))
	for _, line := range rep.Applied {
		fmt.Printf("   %s\n", line)
	}

	fmt.Println("\n== fault trace (replayable: same seed -> same signature)")
	for _, line := range chaos.Signature(tb.Log.Records()) {
		fmt.Printf("   %s\n", line)
	}

	l1, _ := tb.Check("L1")
	st := tb.Stats()
	fmt.Printf("\n== survived: lamp power=%s, %d pods running, %d broker drops injected\n",
		l1.GetString("power.status"), st.PodsRunning, st.Broker.FaultDrops)

	// Self-healing gate: every injected fault must be recovered — by
	// the engine's scheduled revert or by the runtime healing its
	// severed broker link, 50 ms after the cut.
	injected := tb.Obs.Value(obs.FaultsInjectedName)
	var recovered float64
	for wait := 0; ; wait++ {
		recovered = tb.Obs.Value(obs.FaultsRecoveredName)
		if recovered >= injected || wait >= 100 {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	snap := tb.Obs.Snapshot()
	fmt.Printf("\n== metrics: %d families, %.0f/%.0f faults recovered\n",
		len(snap.Families), recovered, injected)
	if fs := snap.Family("digibox_e2e_latency_seconds"); fs != nil {
		for _, m := range fs.Metrics {
			fmt.Printf("   e2e latency %-12s p50=%s p99=%s (%d msgs)\n",
				m.LabelValues[0], time.Duration(m.P50*float64(time.Second)),
				time.Duration(m.P99*float64(time.Second)), m.Count)
		}
	}
	if recovered < injected {
		log.Fatalf("chaosdrill: %v faults injected but only %v recovered", injected, recovered)
	}
	if len(snap.Families) < 12 {
		log.Fatalf("chaosdrill: only %d metric families exposed, want >= 12", len(snap.Families))
	}
	var healed float64
	for _, m := range snap.Family(obs.FaultsRecoveredName).Metrics {
		if m.LabelValues[0] == "reconnect" {
			healed = m.Value
		}
	}
	if healed < 1 {
		log.Fatalf("chaosdrill: the severed runtime link never healed (no via=\"reconnect\" recovery)")
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
