package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/clock"
	"repro/internal/kube"
	"repro/internal/profile"
	"repro/internal/swarm"
)

// swarmTestbed builds a started multi-node testbed with no listeners:
// swarm runs entirely on the in-process message plane.
func swarmTestbed(t *testing.T, nodes ...NodeSpec) *Testbed {
	t.Helper()
	tb, err := New(Options{
		Nodes:      nodes,
		BrokerAddr: "none",
		RESTAddr:   "none",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Stop)
	return tb
}

// TestRunSwarmSpreadsWorkersAndLosesNothing is the end-to-end wiring
// test: a short open-loop run across 3 nodes must place one worker pod
// per node (spread strategy), deliver every QoS 1 publish to every
// subscriber, and clean its pods up afterwards.
func TestRunSwarmSpreadsWorkersAndLosesNothing(t *testing.T) {
	tb := swarmTestbed(t,
		NodeSpec{Name: "n0", Capacity: 8, Zone: "local"},
		NodeSpec{Name: "n1", Capacity: 8, Zone: "local"},
		NodeSpec{Name: "n2", Capacity: 8, Zone: "local"},
	)
	rep, err := tb.RunSwarm(context.Background(), SwarmSpec{
		Shards: 2,
		Load: swarm.LoadSpec{
			Profile:  swarm.ProfileOpen,
			Devices:  50,
			Rate:     2000,
			Duration: 300 * time.Millisecond,
			Workers:  3,
			QoS:      1,
			Subs:     2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Published == 0 {
		t.Fatal("no messages published")
	}
	if rep.Lost != 0 {
		t.Fatalf("lost %d of %d expected deliveries", rep.Lost, rep.Expected)
	}
	if rep.Delivered != rep.Published*2 {
		t.Fatalf("delivered %d, want %d", rep.Delivered, rep.Published*2)
	}
	if rep.Shards != 2 || len(rep.PerShard) != 2 {
		t.Fatalf("shards = %d (%d per-shard entries), want 2", rep.Shards, len(rep.PerShard))
	}
	if len(rep.Placements) != 3 {
		t.Fatalf("placements = %v, want 3 pods", rep.Placements)
	}
	nodes := map[string]int{}
	for _, node := range rep.Placements {
		nodes[node]++
	}
	for node, n := range nodes {
		if n != 1 {
			t.Errorf("node %s got %d workers, want 1 (spread): %v", node, n, rep.Placements)
		}
	}
	for _, p := range tb.Cluster.ListPods() {
		if p.Labels["app"] == "swarm" {
			t.Errorf("swarm pod %s not cleaned up", p.Name)
		}
	}
}

// TestRunSwarmMockFleet runs the closed preset — the random-walk fleet
// that used to need a mock mode — and taps it: every device publishes
// {"seq","kind":"dev","v"} with v walking inside [0,1] on
// swarm/dev-N/status, exactly Devices × Duration/Period times, zero
// loss.
func TestRunSwarmMockFleet(t *testing.T) {
	tb := swarmTestbed(t, NodeSpec{Name: "laptop", Capacity: 16, Zone: "local"})
	var mu sync.Mutex
	seqs := map[string]uint64{}
	rep, err := tb.RunSwarm(context.Background(), SwarmSpec{
		Load: swarm.LoadSpec{
			Profile:  swarm.ProfileClosed,
			Devices:  40,
			Period:   50 * time.Millisecond,
			Duration: 200 * time.Millisecond,
			Workers:  2,
			QoS:      1,
			Subs:     1,
		},
		Tap: func(topic string, payload []byte) {
			var msg struct {
				Seq  uint64
				Kind string
				V    *float64
			}
			mu.Lock()
			defer mu.Unlock()
			if err := json.Unmarshal(payload, &msg); err != nil || msg.Kind != "dev" ||
				msg.V == nil || *msg.V < 0 || *msg.V > 1 || msg.Seq != seqs[topic]+1 {
				t.Errorf("%s: payload %s (err %v) after seq %d is not the next step of a [0,1] walk",
					topic, payload, err, seqs[topic])
			}
			seqs[topic] = msg.Seq
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Published != 40*4 {
		t.Fatalf("published %d, want 40 devices × 4 periods", rep.Published)
	}
	if err := rep.Gate(0); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for d := 0; d < 40; d++ {
		if got := seqs[swarm.DeviceTopic("swarm", d)]; got != 4 {
			t.Fatalf("device %d published %d messages, want 4", d, got)
		}
	}
	// Shards defaulted from the device count: 40 devices fit one shard.
	if rep.Shards != 1 {
		t.Fatalf("shards = %d, want 1", rep.Shards)
	}
}

// TestRunSwarmFailoverDeterminism is the failover replay contract: two
// fresh testbeds running the same seeded load with the same kill
// schedule survive with zero loss, record exactly one failover each,
// and log identical chaos fault signatures — the kill timeline is a
// pure function of (seed, schedule), not of detection timing.
func TestRunSwarmFailoverDeterminism(t *testing.T) {
	run := func() (*swarm.Report, []string) {
		tb := swarmTestbed(t,
			NodeSpec{Name: "n0", Capacity: 16, Zone: "local"},
			NodeSpec{Name: "n1", Capacity: 16, Zone: "local"},
		)
		rep, err := tb.RunSwarm(context.Background(), SwarmSpec{
			Shards: 3,
			Load: swarm.LoadSpec{
				Profile:  swarm.ProfileOpen,
				Devices:  60,
				Rate:     3000,
				Duration: 600 * time.Millisecond,
				Workers:  2,
				QoS:      1,
				Subs:     2,
				Seed:     21,
			},
			Kills: []ShardKill{{Shard: 1, At: 150 * time.Millisecond, For: 250 * time.Millisecond}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep, chaos.Signature(tb.Log.Records())
	}
	repA, sigA := run()
	repB, sigB := run()
	for _, rep := range []*swarm.Report{repA, repB} {
		if rep.Lost != 0 {
			t.Fatalf("lost %d of %d expected deliveries across the kill", rep.Lost, rep.Expected)
		}
		if rep.Failovers != 1 {
			t.Fatalf("failovers = %d, want 1", rep.Failovers)
		}
		if rep.Shed != 0 {
			t.Fatalf("shed %d journaled messages", rep.Shed)
		}
		if err := rep.GateRecovery(1, 5000); err != nil {
			t.Fatal(err)
		}
		// The kill was bounded by For, so the run ends with every shard
		// back up.
		if len(rep.ShardsDown) != 0 {
			t.Fatalf("shards still down at run end: %v", rep.ShardsDown)
		}
	}
	if len(sigA) == 0 {
		t.Fatal("empty chaos signature — the kill schedule never logged")
	}
	if fmt.Sprint(sigA) != fmt.Sprint(sigB) {
		t.Fatalf("fault signatures differ across identical runs\nA: %v\nB: %v", sigA, sigB)
	}
}

// TestWaitSwarmPodsErrors pins the pod wait's results: placements from
// the Succeeded events, a Failed pod reported verbatim, and a timeout
// naming the pods still out.
func TestWaitSwarmPodsErrors(t *testing.T) {
	tb := swarmTestbed(t, NodeSpec{Name: "n0", Capacity: 8, Zone: "local"})
	images := map[string]func(ctx context.Context) error{
		"done": func(context.Context) error { return nil },
		"boom": func(context.Context) error { return errors.New("boom") },
		"hang": func(ctx context.Context) error { <-ctx.Done(); return nil },
	}
	for image, run := range images {
		tb.Cluster.RegisterImage(image, func(map[string]any) (kube.Workload, error) {
			return kube.WorkloadFunc(run), nil
		})
		name := "w-" + image
		if err := tb.Cluster.CreatePod(&kube.Pod{Name: name, Spec: kube.PodSpec{Image: image, RestartPolicy: kube.RestartNever}}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tb.Cluster.DeletePod(name) })
	}
	ctx := context.Background()
	placements, err := tb.waitSwarmPods(ctx, []string{"w-done"}, 5*time.Second)
	if err != nil || placements["w-done"] != "n0" {
		t.Fatalf("placements = %v, err = %v; want w-done on n0", placements, err)
	}
	_, err = tb.waitSwarmPods(ctx, []string{"w-done", "w-boom"}, 5*time.Second)
	if want := "core: swarm pod w-boom failed: boom"; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	_, err = tb.waitSwarmPods(ctx, []string{"w-done", "w-hang"}, 50*time.Millisecond)
	if want := "core: swarm timed out waiting for pods w-hang"; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

// TestRunSwarmNeedsStartedTestbed pins the lifecycle guard.
func TestRunSwarmNeedsStartedTestbed(t *testing.T) {
	tb, err := New(Options{BrokerAddr: "none", RESTAddr: "none"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.RunSwarm(context.Background(), SwarmSpec{}); err == nil {
		t.Fatal("RunSwarm on an unstarted testbed succeeded")
	}
}

// TestRunSwarmAtSpeedMaxIsExact: a -speed max run whose workers' waits
// are granted in place still publishes exactly its schedule, loses
// nothing, and delivers every device's payloads in schedule order, with
// one or two Ps.
func TestRunSwarmAtSpeedMaxIsExact(t *testing.T) {
	load := swarm.LoadSpec{
		Profile:  swarm.ProfileOpen,
		Devices:  60,
		Rate:     3000,
		Duration: 500 * time.Millisecond,
		Workers:  2,
		QoS:      1,
		Subs:     2,
		Seed:     5,
	}
	eff := load.WithDefaults()
	want := map[string][]string{}
	if err := profile.Walk(eff.EffectiveProfile(), eff.Devices, eff.Seed, eff.Duration,
		func(d int, _ time.Duration, payload []byte) {
			topic := swarm.DeviceTopic(eff.Prefix, d)
			want[topic] = append(want[topic], string(payload))
		}); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, p := range want {
		total += int64(len(p))
	}
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			tb, err := New(Options{
				Nodes:      []NodeSpec{{Name: "n0", Capacity: 8, Zone: "local"}, {Name: "n1", Capacity: 8, Zone: "local"}},
				BrokerAddr: "none",
				RESTAddr:   "none",
				TimeScale:  clock.SpeedMax,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := tb.Start(); err != nil {
				t.Fatal(err)
			}
			defer tb.Stop()
			var mu sync.Mutex
			got := map[string][]string{}
			rep, err := tb.RunSwarm(context.Background(), SwarmSpec{
				Shards: 2,
				Load:   load,
				Tap: func(topic string, payload []byte) {
					mu.Lock()
					got[topic] = append(got[topic], string(payload))
					mu.Unlock()
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Published != total || rep.Lost != 0 || rep.Delivered != total*int64(load.Subs) {
				t.Fatalf("published %d (schedule %d), delivered %d, lost %d", rep.Published, total, rep.Delivered, rep.Lost)
			}
			mu.Lock()
			defer mu.Unlock()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("the tap's per-device payload streams differ from the schedule (%d topics tapped, %d scheduled)", len(got), len(want))
			}
		})
	}
}
