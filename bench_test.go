package digibox

// Benchmark harness regenerating every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index and EXPERIMENTS.md
// for paper-vs-measured numbers):
//
//	BenchmarkE1LaptopScale    §4 laptop point: 50 occupancy sensors in
//	                          2 rooms, avg REST GET latency (< 20 ms)
//	BenchmarkE2CloudScale     §4 cloud point: 1000 sensors, 100 rooms,
//	                          5 buildings on 2 nodes with network delay
//	                          (< 60 ms)
//	BenchmarkE3ScalingSweep   latency vs #mocks series implied by the
//	                          two §4 points
//	BenchmarkScaleSetup       deploying the §4 cloud point: the 1,105
//	                          run/attach verbs bench/'s rest_status
//	                          times as setup_s (profile it with
//	                          -cpuprofile; bench/ takes none)
//	BenchmarkTable1APIs       latency of each dbox verb (Table 1)
//	BenchmarkFig7Fidelity     device-centric vs scene-centric
//	                          correlation-violation rate (Fig. 7)
//	BenchmarkReplay           §3.5 trace replay throughput
//	BenchmarkActuationDelay   §6 extension: command-to-status latency
//	                          under simulated actuation delay
//
// Scale testbeds are cached across benchmark re-invocations (the
// testing package calls each Benchmark function several times with
// growing b.N); they live until process exit.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/trace"
)

// scaleConfig describes one deployment point.
type scaleConfig struct {
	name      string
	nodes     []NodeSpec
	zoneDelay []ZoneDelay
	gwZone    string
	buildings int
	rooms     int
	sensors   int
}

var (
	scaleMu   sync.Mutex
	scaleBeds = map[string]*Testbed{}
	// watchEditSeq makes every watch-bench edit distinct across
	// benchmark re-invocations.
	watchEditSeq int
)

// getScaleBed builds (once) a testbed with the configured hierarchy:
// sensors spread over rooms, rooms over buildings.
func getScaleBed(b *testing.B, cfg scaleConfig) *Testbed {
	b.Helper()
	scaleMu.Lock()
	defer scaleMu.Unlock()
	if tb, ok := scaleBeds[cfg.name]; ok {
		return tb
	}
	tb := buildScaleBed(b, cfg)
	scaleBeds[cfg.name] = tb
	return tb
}

// buildScaleBed deploys the configured hierarchy on a new testbed.
func buildScaleBed(b *testing.B, cfg scaleConfig) *Testbed {
	b.Helper()
	tb, err := New(Options{
		Nodes:       cfg.nodes,
		ZoneDelays:  cfg.zoneDelay,
		GatewayZone: cfg.gwZone,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := tb.Start(); err != nil {
		b.Fatal(err)
	}
	// Slow the event generators down so steady-state churn is modest
	// at large scale (the paper's sensors emit on the order of
	// seconds, not hundreds of milliseconds).
	sensorCfg := map[string]any{"interval_ms": int64(2000)}
	for i := 0; i < cfg.sensors; i++ {
		name := fmt.Sprintf("o%04d", i)
		if err := tb.Run("Occupancy", name, sensorCfg); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < cfg.rooms; i++ {
		name := fmt.Sprintf("room%03d", i)
		if err := tb.Run("Room", name, map[string]any{"interval_ms": int64(2000)}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < cfg.buildings; i++ {
		name := fmt.Sprintf("building%02d", i)
		if err := tb.Run("Building", name, map[string]any{"interval_ms": int64(2000)}); err != nil {
			b.Fatal(err)
		}
	}
	// Attach sensors round-robin to rooms, rooms to buildings.
	for i := 0; i < cfg.sensors && cfg.rooms > 0; i++ {
		room := fmt.Sprintf("room%03d", i%cfg.rooms)
		if err := tb.Attach(fmt.Sprintf("o%04d", i), room); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < cfg.rooms && cfg.buildings > 0; i++ {
		bld := fmt.Sprintf("building%02d", i%cfg.buildings)
		if err := tb.Attach(fmt.Sprintf("room%03d", i), bld); err != nil {
			b.Fatal(err)
		}
	}
	return tb
}

// benchStatusGets drives closed-loop REST GETs of mock status — the
// exact request the paper benchmarks — and reports ms/req.
func benchStatusGets(b *testing.B, tb *Testbed, sensors int) {
	b.Helper()
	cli := tb.RESTClient()
	names := make([]string, sensors)
	for i := range names {
		names[i] = fmt.Sprintf("o%04d", i)
	}
	// Warm the path once.
	if _, err := cli.Status(names[0]); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Status(names[i%len(names)]); err != nil {
			b.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	b.StopTimer()
	b.ReportMetric(float64(elapsed.Microseconds())/float64(b.N)/1000, "ms/req")
}

// BenchmarkE1LaptopScale reproduces the paper's laptop deployment
// point: 50 occupancy sensors in 2 room scenes on one node; the paper
// reports average REST GET latency under 20 ms.
func BenchmarkE1LaptopScale(b *testing.B) {
	tb := getScaleBed(b, scaleConfig{
		name:    "e1",
		rooms:   2,
		sensors: 50,
	})
	benchStatusGets(b, tb, 50)
}

// BenchmarkE2CloudScale reproduces the cloud deployment point: 1000
// sensors across 100 rooms and 5 buildings on two nodes, with the
// client outside the cluster behind a simulated 25 ms one-way network
// delay; the paper reports average latency (network delay included)
// under 60 ms.
func BenchmarkE2CloudScale(b *testing.B) {
	tb := getScaleBed(b, scaleConfig{
		name: "e2",
		nodes: []NodeSpec{
			{Name: "ec2-a", Capacity: 4096, Zone: "us-east"},
			{Name: "ec2-b", Capacity: 4096, Zone: "us-east"},
		},
		zoneDelay: []ZoneDelay{{A: "client", B: "us-east", Delay: 25 * time.Millisecond}},
		gwZone:    "client",
		buildings: 5,
		rooms:     100,
		sensors:   1000,
	})
	benchStatusGets(b, tb, 1000)
}

// BenchmarkScaleSetup deploys the cloud point's hierarchy from nothing
// each iteration: what a dbox user waits for before the first request,
// and where the model store's write path is most of the work.
func BenchmarkScaleSetup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := buildScaleBed(b, scaleConfig{
			nodes: []NodeSpec{
				{Name: "ec2-a", Capacity: 4096, Zone: "us-east"},
				{Name: "ec2-b", Capacity: 4096, Zone: "us-east"},
			},
			buildings: 5,
			rooms:     100,
			sensors:   1000,
		})
		b.StopTimer()
		tb.Stop()
		b.StartTimer()
	}
}

// BenchmarkE3ScalingSweep regenerates the latency-vs-scale series
// implied by the two §4 points: the curve should stay flat (local) and
// offset by the network delay (cloud) until CPU saturation.
func BenchmarkE3ScalingSweep(b *testing.B) {
	for _, n := range []int{10, 50, 100, 250, 500, 1000} {
		n := n
		b.Run(fmt.Sprintf("local/mocks=%d", n), func(b *testing.B) {
			rooms := n / 25
			if rooms < 1 {
				rooms = 1
			}
			tb := getScaleBed(b, scaleConfig{
				name:    fmt.Sprintf("sweep-local-%d", n),
				rooms:   rooms,
				sensors: n,
			})
			benchStatusGets(b, tb, n)
		})
	}
}

// BenchmarkTable1APIs measures every dbox verb of Table 1.
func BenchmarkTable1APIs(b *testing.B) {
	tb, err := New(Options{
		LocalRepoDir:  b.TempDir() + "/local",
		RemoteRepoDir: b.TempDir() + "/remote",
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := tb.Start(); err != nil {
		b.Fatal(err)
	}
	defer tb.Stop()

	b.Run("run+stop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			name := fmt.Sprintf("bench-lamp-%d", i)
			if err := tb.Run("Lamp", name, nil); err != nil {
				b.Fatal(err)
			}
			if err := tb.StopDigi(name); err != nil {
				b.Fatal(err)
			}
		}
	})

	if err := tb.Run("Lamp", "L1", nil); err != nil {
		b.Fatal(err)
	}
	if err := tb.Run("Room", "R1", map[string]any{"managed": false}); err != nil {
		b.Fatal(err)
	}

	b.Run("check", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tb.Check("L1"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("watch", func(b *testing.B) {
		w := tb.Watch("L1")
		defer w.Close()
		for i := 0; i < b.N; i++ {
			// The edited value must differ from the stored one every
			// time (including across benchmark re-invocations), or the
			// no-op commit is suppressed and no update arrives.
			watchEditSeq++
			v := float64(watchEditSeq%997) / 1000
			if err := tb.Edit("L1", map[string]any{
				"intensity": map[string]any{"intent": v},
			}); err != nil {
				b.Fatal(err)
			}
			<-w.C
		}
	})
	b.Run("attach+detach", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := tb.Attach("L1", "R1"); err != nil {
				b.Fatal(err)
			}
			if err := tb.Detach("L1", "R1"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("edit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v := "on"
			if i%2 == 1 {
				v = "off"
			}
			if err := tb.Edit("L1", map[string]any{"power": map[string]any{"intent": v}}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("commit", func(b *testing.B) {
		if err := tb.Attach("L1", "R1"); err != nil {
			b.Fatal(err)
		}
		defer tb.Detach("L1", "R1")
		for i := 0; i < b.N; i++ {
			if _, err := tb.CommitScene("R1"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("push+pull", func(b *testing.B) {
		if _, err := tb.CommitScene("R1"); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if err := tb.Push("R1"); err != nil {
				b.Fatal(err)
			}
			if err := tb.Pull("R1"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("replay", func(b *testing.B) {
		recs := syntheticTrace(200)
		// Replay against models that exist: L1 only.
		for i := 0; i < b.N; i++ {
			if err := tb.Replay(context.Background(), recs, 0); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(recs)), "records/replay")
	})
}

func syntheticTrace(n int) []trace.Record {
	recs := make([]trace.Record, 0, n)
	for i := 0; i < n; i++ {
		v := "on"
		if i%2 == 1 {
			v = "off"
		}
		recs = append(recs, trace.Record{
			Seq:  uint64(i + 1),
			TS:   time.Duration(i) * time.Millisecond,
			Kind: trace.KindAction,
			Name: "L1",
			Sets: map[string]any{"power.intent": v},
		})
	}
	return recs
}

// BenchmarkFig7Fidelity regenerates Fig. 7's central claim: a
// device-centric simulation (independent per-device generators)
// exhibits cross-device correlation violations that scene-centric
// simulation eliminates. The observed metric is the rate of samples,
// taken by an application polling over REST, in which a desk-level
// sensor reads occupied while the ceiling sensor of the same room
// reads empty — an impossible state in the real world.
func BenchmarkFig7Fidelity(b *testing.B) {
	run := func(b *testing.B, sceneCentric bool) {
		tb, err := New(Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := tb.Start(); err != nil {
			b.Fatal(err)
		}
		defer tb.Stop()
		fast := map[string]any{"interval_ms": int64(20)}
		if err := tb.Run("Occupancy", "ceiling", fast); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if err := tb.Run("Underdesk", fmt.Sprintf("desk%d", i), fast); err != nil {
				b.Fatal(err)
			}
		}
		if sceneCentric {
			if err := tb.Run("MeetingRoom", "room", map[string]any{"interval_ms": int64(20), "meeting_prob": 0.5}); err != nil {
				b.Fatal(err)
			}
			if err := tb.Attach("ceiling", "room"); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				if err := tb.Attach(fmt.Sprintf("desk%d", i), "room"); err != nil {
					b.Fatal(err)
				}
			}
		}
		cli := tb.RESTClient()
		violations := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ceiling, err := cli.Status("ceiling")
			if err != nil {
				b.Fatal(err)
			}
			for d := 0; d < 4; d++ {
				desk, err := cli.Status(fmt.Sprintf("desk%d", d))
				if err != nil {
					b.Fatal(err)
				}
				if desk["triggered"] == true && ceiling["triggered"] != true {
					violations++
				}
			}
			time.Sleep(2 * time.Millisecond) // sample cadence
		}
		b.StopTimer()
		b.ReportMetric(float64(violations)*100/float64(b.N*4), "violations/100obs")
	}
	b.Run("device-centric", func(b *testing.B) { run(b, false) })
	b.Run("scene-centric", func(b *testing.B) { run(b, true) })
}

// BenchmarkReplay measures §3.5 trace replay throughput (records/s,
// fast-path replay of action records through the model store and the
// reacting digi).
func BenchmarkReplay(b *testing.B) {
	tb, err := New(Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := tb.Start(); err != nil {
		b.Fatal(err)
	}
	defer tb.Stop()
	if err := tb.Run("Lamp", "L1", nil); err != nil {
		b.Fatal(err)
	}
	recs := syntheticTrace(1000)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if err := tb.Replay(context.Background(), recs, 0); err != nil {
			b.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	b.StopTimer()
	b.ReportMetric(float64(b.N*len(recs))/elapsed.Seconds(), "records/s")
}

// BenchmarkActuationDelay measures the §6 extension: command-to-status
// convergence latency for a lamp with simulated actuation delay. The
// measured value should track the configured delay plus a small
// scheduling overhead — matching prior work's observation that real
// device actuation takes tens to hundreds of milliseconds.
func BenchmarkActuationDelay(b *testing.B) {
	for _, delayMS := range []int64{0, 50, 100} {
		delayMS := delayMS
		b.Run(fmt.Sprintf("delay=%dms", delayMS), func(b *testing.B) {
			tb, err := New(Options{})
			if err != nil {
				b.Fatal(err)
			}
			if err := tb.Start(); err != nil {
				b.Fatal(err)
			}
			defer tb.Stop()
			cfg := map[string]any{}
			if delayMS > 0 {
				cfg["actuation_delay_ms"] = delayMS
			}
			if err := tb.Run("Lamp", "L1", cfg); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				want := "on"
				if i%2 == 1 {
					want = "off"
				}
				if err := tb.Edit("L1", map[string]any{"power": map[string]any{"intent": want}}); err != nil {
					b.Fatal(err)
				}
				if err := tb.WaitConverged(10*time.Second, func() bool {
					d, _ := tb.Check("L1")
					return d != nil && d.GetString("power.status") == want
				}); err != nil {
					b.Fatal(err)
				}
			}
			elapsed := time.Since(start)
			b.StopTimer()
			b.ReportMetric(float64(elapsed.Milliseconds())/float64(b.N), "ms/actuation")
		})
	}
}

// BenchmarkFaultSweep measures MQTT session recovery under the chaos
// engine's broker faults: a subscriber is force-disconnected while a
// publisher keeps emitting, and the metric is the time from the kick
// until the subscriber receives a message again — reconnect backoff
// plus resubscribe plus however many post-recovery deliveries the
// active drop rule eats. Swept over drop rate × reconnect backoff
// floor (see EXPERIMENTS.md).
func BenchmarkFaultSweep(b *testing.B) {
	for _, dropRate := range []float64{0, 0.25, 0.5, 0.75} {
		for _, backoff := range []time.Duration{10 * time.Millisecond, 50 * time.Millisecond, 200 * time.Millisecond} {
			b.Run(fmt.Sprintf("drop=%.2f/backoff=%v", dropRate, backoff), func(b *testing.B) {
				br := broker.NewBroker(nil)
				if err := br.ListenAndServe("127.0.0.1:0"); err != nil {
					b.Fatal(err)
				}
				defer br.Close()
				br.SetFaultSeed(1)
				if dropRate > 0 {
					remove := br.AddFault(broker.FaultRule{Client: "sub", DropRate: dropRate})
					defer remove()
				}
				pub, err := broker.Dial(br.Addr(), &broker.ClientOptions{ClientID: "pub"})
				if err != nil {
					b.Fatal(err)
				}
				defer pub.Close()
				delivered := make(chan struct{}, 64)
				sub, err := broker.Dial(br.Addr(), &broker.ClientOptions{
					ClientID:      "sub",
					AutoReconnect: true,
					ReconnectMin:  backoff,
					ReconnectMax:  8 * backoff,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer sub.Close()
				if err := sub.Subscribe("sweep/t", 0, func(broker.Message) {
					select {
					case delivered <- struct{}{}:
					default:
					}
				}); err != nil {
					b.Fatal(err)
				}
				stop := make(chan struct{})
				defer close(stop)
				go func() {
					tick := time.NewTicker(2 * time.Millisecond)
					defer tick.Stop()
					for {
						select {
						case <-stop:
							return
						case <-tick.C:
							pub.Publish("sweep/t", []byte("x"), 0, false)
						}
					}
				}()
				// Confirm the pipeline flows before measuring.
				select {
				case <-delivered:
				case <-time.After(5 * time.Second):
					b.Fatal("no baseline delivery")
				}
				b.ResetTimer()
				var total time.Duration
				for i := 0; i < b.N; i++ {
					// Drain stale deliveries, then sever the session.
					for len(delivered) > 0 {
						<-delivered
					}
					start := time.Now()
					if !br.Kick("sub") {
						b.Fatal("subscriber not connected")
					}
					select {
					case <-delivered:
						total += time.Since(start)
					case <-time.After(10 * time.Second):
						b.Fatal("no delivery after reconnect")
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(total.Microseconds())/float64(b.N)/1000, "ms/recovery")
			})
		}
	}
}
