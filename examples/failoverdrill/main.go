// Failover drill: kill a broker shard mid-run and lose nothing — the
// robustness axis of the swarm plane, measured instead of claimed.
//
// The run shards the MQTT message plane across four brokers, pushes an
// open-loop 20k msg/s Poisson stream from 2 000 devices through the
// pool at QoS 1 with two wildcard consumers, and crashes shard 1 a
// third of the way in. The pool must detect the death (50 ms after
// it), re-anchor the dead shard's keys and subscriptions onto the
// survivors, and redeliver every journaled message — the gate demands
// exact accounting (delivered = published × subscribers, zero loss,
// nothing shed) plus a bounded recovery p99.
//
//	go run ./examples/failoverdrill [-o BENCH_failover.json]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	digibox "repro"
	"repro/internal/swarm"
)

func main() {
	out := flag.String("o", "", "write the JSON report (BENCH_failover.json) to this file")
	flag.Parse()

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

	rep, err := tb.RunSwarm(context.Background(), digibox.SwarmSpec{
		Shards: 4,
		Load: swarm.LoadSpec{
			Profile:  swarm.ProfileOpen,
			Devices:  2000,
			Rate:     20000,
			Duration: 3 * time.Second,
			Workers:  4,
			QoS:      1,
			Subs:     2,
			Seed:     7,
		},
		// Shard 1 dies one second in and stays dead: the remaining two
		// seconds of load run on three shards, with the dead shard's
		// keys re-anchored to the survivors.
		Kills: []digibox.ShardKill{{Shard: 1, At: time.Second}},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("published %d (%.0f msg/s), delivered %d/%d, lost %d\n",
		rep.Published, rep.PublishRate, rep.Delivered, rep.Expected, rep.Lost)
	fmt.Printf("failovers %d, redelivered %d, shed %d, recovery p50 %.1f ms, p99 %.1f ms, shards down %v\n",
		rep.Failovers, rep.Redelivered, rep.Shed,
		rep.RecoveryP50Ms, rep.RecoveryP99Ms, rep.ShardsDown)
	fmt.Printf("latency p50 %.3f ms, p99 %.3f ms (%d samples), bridge forwards %d\n",
		rep.P50Ms, rep.P99Ms, rep.LatencySamples, rep.BridgeForwards)

	if *out != "" {
		if err := rep.WriteJSON(*out); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("report saved to %s\n", *out)
	}
	if err := rep.Gate(0); err != nil {
		log.Fatal(err)
	}
	// One failover, nothing shed, and a death→takeover p99 under half a
	// second — generous against the 50 ms detection delay plus journal
	// flush, tight enough to catch a detection that never fires.
	if err := rep.GateRecovery(1, 500); err != nil {
		log.Fatal(err)
	}
	fmt.Println("gate passed: shard loss survived with zero QoS 1 loss")
}
