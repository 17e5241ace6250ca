// Swarm bench: thousands of simulated devices in a laptop — the scale
// axis of the paper's pitch, measured instead of claimed.
//
// The run shards the MQTT message plane across two brokers, spreads
// four load-generator pods over four kube nodes, and pushes an
// open-loop 5k msg/s Poisson stream from 2 000 random-walk devices
// (the open preset) through the pool for three seconds. The settled
// report carries exact message accounting (published, delivered, lost)
// and the sampled publish→deliver latency quantiles; at QoS 1 the
// in-process plane must lose nothing, and "published" must equal the
// count the preset's clock-free schedule predicts.
//
//	go run ./examples/swarmbench
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"time"

	digibox "repro"
	"repro/internal/profile"
	"repro/internal/swarm"
)

func main() {
	var nodes []digibox.NodeSpec
	for i := 0; i < 4; i++ {
		nodes = append(nodes, digibox.NodeSpec{
			Name: fmt.Sprintf("node-%d", i), Capacity: 64, Zone: "local",
		})
	}
	tb, err := digibox.New(digibox.Options{
		Nodes:      nodes,
		BrokerAddr: "none", // swarm runs on the in-process plane
		RESTAddr:   "none",
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := tb.Start(); err != nil {
		log.Fatal(err)
	}
	defer tb.Stop()

	load := swarm.LoadSpec{
		Profile:  swarm.ProfileOpen,
		Devices:  2000,
		Rate:     5000,
		Duration: 3 * time.Second,
		Workers:  4,
		QoS:      1,
		Subs:     2,
		Seed:     7,
	}.WithDefaults()
	rep, err := tb.RunSwarm(context.Background(), digibox.SwarmSpec{Shards: 2, Load: load})
	if err != nil {
		log.Fatal(err)
	}
	_, scheduled, err := profile.Digest(load.EffectiveProfile(), load.Devices, load.Seed, load.Duration, "")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("published %d (%.0f msg/s), delivered %d/%d, lost %d\n",
		rep.Published, rep.PublishRate, rep.Delivered, rep.Expected, rep.Lost)
	fmt.Printf("latency p50 %.3f ms, p99 %.3f ms (%d samples), bridge forwards %d\n",
		rep.P50Ms, rep.P99Ms, rep.LatencySamples, rep.BridgeForwards)
	pods := make([]string, 0, len(rep.Placements))
	for pod := range rep.Placements {
		pods = append(pods, pod)
	}
	sort.Strings(pods)
	for _, pod := range pods {
		fmt.Printf("  %s -> %s\n", pod, rep.Placements[pod])
	}
	if err := rep.Gate(0); err != nil {
		log.Fatal(err)
	}
	if rep.Published != scheduled {
		log.Fatalf("published %d, the schedule has %d", rep.Published, scheduled)
	}
	fmt.Println("gate passed: zero QoS 1 loss, published == scheduled")
}
