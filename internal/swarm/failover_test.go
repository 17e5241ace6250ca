package swarm

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/clock"
	"repro/internal/obs"
)

// stepUntil drives a virtual pool clock until cond holds, firing due
// timers as fast as they arm. The real-time bound catches a wedged
// detection without encoding any scheduling guess.
func stepUntil(t *testing.T, v *clock.Virtual, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		if !v.Step(v.Now().Add(time.Hour)) {
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// TestFailoverEquivalenceKillRevive is the robustness analogue of
// TestBridgeSemanticsTable: every case runs once against a single
// broker with no faults and once against a 4-shard pool that loses a
// shard mid-sequence — kill, a publish window while the death is
// undetected (guaranteed journal spills), the detection-driven failover
// on a virtual clock, more publishes, an explicit revive, a final batch,
// and late subscribers. The sorted delivery sets must be identical:
// shard loss is invisible to MQTT semantics, message by message, QoS
// bit by QoS bit.
func TestFailoverEquivalenceKillRevive(t *testing.T) {
	cases := []struct {
		name   string
		subs   []subCase
		pubs1  []pubCase // before the kill
		victim string    // ring key (client id or topic) whose shard dies
		window []pubCase // after the kill, before the failover
		pubs2  []pubCase // after the failover
		pubs3  []pubCase // after the revive
		// subsAfter subscribe at the very end — the retained-state-
		// survives-failover path.
		subsAfter []subCase
	}{
		{
			name: "kill the subscriber's shard",
			subs: []subCase{
				{"app-a", "fo/+/status", 1},
				{"app-b", "fo/#", 0},
			},
			pubs1:  []pubCase{{"fo/dev-1/status", "before", 1, false}},
			victim: "app-a",
			window: []pubCase{
				{"fo/dev-1/status", "window-1", 1, false},
				{"fo/dev-2/status", "window-2", 1, false},
				{"fo/dev-3/status", "window-3", 0, false},
			},
			pubs2: []pubCase{{"fo/dev-2/status", "after-failover", 1, false}},
			pubs3: []pubCase{{"fo/dev-3/status", "after-revive", 1, false}},
		},
		{
			name: "kill a topic's home shard",
			subs: []subCase{
				{"app-a", "fo/+/status", 1},
			},
			pubs1:  []pubCase{{"fo/dev-1/status", "before", 1, false}},
			victim: "fo/dev-1/status",
			window: []pubCase{
				{"fo/dev-1/status", "homeless-1", 1, false},
				{"fo/dev-1/status", "homeless-2", 1, false},
			},
			pubs2: []pubCase{{"fo/dev-1/status", "after-failover", 1, false}},
			pubs3: []pubCase{{"fo/dev-1/status", "after-revive", 1, false}},
		},
		{
			name: "retained state survives kill and revive",
			subs: []subCase{
				{"app-a", "fo/+/status", 1},
			},
			pubs1:  []pubCase{{"fo/dev-1/status", "v1", 1, true}},
			victim: "fo/dev-1/status",
			window: []pubCase{{"fo/dev-1/status", "v2", 1, true}},
			pubs2:  []pubCase{{"fo/dev-2/status", "v3", 1, true}},
			pubs3:  nil,
			subsAfter: []subCase{
				{"late", "fo/+/status", 1},
			},
		},
		{
			name: "overlap dedup holds through redelivery",
			subs: []subCase{
				{"app-a", "fo/+/status", 0},
				{"app-a", "fo/#", 1},
			},
			pubs1:  nil,
			victim: "app-a",
			window: []pubCase{{"fo/dev-1/status", "once", 1, false}},
			pubs2:  nil,
			pubs3:  []pubCase{{"fo/dev-1/status", "twice", 1, false}},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Reference: a single broker, no faults, same sequence.
			var all []pubCase
			all = append(all, tc.pubs1...)
			all = append(all, tc.window...)
			all = append(all, tc.pubs2...)
			all = append(all, tc.pubs3...)
			want := runSemantics(t, 1, tc.subs, all, tc.subsAfter)

			v := clock.NewVirtual()
			pool := NewPool(PoolOptions{
				Shards: 4,
				Clock:  v,
				Health: HealthOptions{DetectAfter: 20 * time.Millisecond},
			})
			defer pool.Close()
			rec := &recorder{}
			for _, s := range tc.subs {
				if err := pool.Subscribe(s.client, s.filter, s.qos, rec.handler(s.client)); err != nil {
					t.Fatal(err)
				}
			}
			publish := func(pubs []pubCase) {
				for _, p := range pubs {
					if err := pool.Publish("pub", p.topic, []byte(p.payload), p.qos, p.retain); err != nil {
						t.Fatal(err)
					}
				}
			}
			publish(tc.pubs1)
			victim := pool.ShardFor(tc.victim)
			if err := pool.KillShard(victim); err != nil {
				t.Fatal(err)
			}
			// The death is not yet detected: these publishes must park in
			// the journal (or re-anchor at publish time) and come out
			// exactly once.
			publish(tc.window)
			stepUntil(t, v, func() bool {
				return pool.FailoverStats().Failovers == 1
			}, "detection never ran the failover")
			publish(tc.pubs2)
			if err := pool.ReviveShard(victim); err != nil {
				t.Fatal(err)
			}
			publish(tc.pubs3)
			for _, s := range tc.subsAfter {
				if err := pool.Subscribe(s.client, s.filter, s.qos, rec.handler(s.client)); err != nil {
					t.Fatal(err)
				}
			}

			got := rec.sorted()
			if len(want) == 0 {
				t.Fatal("single-broker run delivered nothing — broken test case")
			}
			if fmt.Sprint(want) != fmt.Sprint(got) {
				t.Fatalf("delivery sets differ\nsingle: %v\nfailover pool: %v", want, got)
			}
			if stats := pool.FailoverStats(); stats.Shed != 0 {
				t.Fatalf("journal shed %d messages in a small run", stats.Shed)
			}
			if down := pool.Stats().ShardsDown; len(down) != 0 {
				t.Fatalf("shards still down after revive: %v", down)
			}
		})
	}
}

// TestPartitionHealFlush severs a subscriber shard's bridge links,
// proves cross-shard traffic parks instead of delivering, then heals
// and requires the parked messages to arrive exactly once, in order.
func TestPartitionHealFlush(t *testing.T) {
	pool := NewPool(PoolOptions{Shards: 2, Health: HealthOptions{Disable: true}})
	defer pool.Close()
	rec := &recorder{}
	if err := pool.Subscribe("s", "pz/#", 1, rec.handler("s")); err != nil {
		t.Fatal(err)
	}
	subShard := pool.ShardFor("s")
	if err := pool.PartitionShard(subShard); err != nil {
		t.Fatal(err)
	}
	// Publish only to topics homed on the OTHER shard, so every
	// delivery must cross the severed bridge link.
	var topics []string
	for i := 0; len(topics) < 5; i++ {
		topic := fmt.Sprintf("pz/dev-%d/status", i)
		if pool.ShardFor(topic) != subShard {
			topics = append(topics, topic)
		}
	}
	for seq, topic := range topics {
		if err := pool.Publish("pub", topic, []byte(fmt.Sprintf("m%d", seq)), 1, false); err != nil {
			t.Fatal(err)
		}
	}
	if got := rec.sorted(); len(got) != 0 {
		t.Fatalf("severed bridge delivered %d messages: %v", len(got), got)
	}
	if err := pool.HealShard(subShard); err != nil {
		t.Fatal(err)
	}
	got := rec.sorted()
	if len(got) != len(topics) {
		t.Fatalf("heal flushed %d messages, want %d: %v", len(got), len(topics), got)
	}
	if shed := pool.FailoverStats().Shed; shed != 0 {
		t.Fatalf("shed %d under the journal limit", shed)
	}
}

// TestJournalShedBounded overflows the bounded journal during a
// partition: the limit parks, the excess sheds (counted, never
// blocking), and the heal flushes exactly the parked prefix.
func TestJournalShedBounded(t *testing.T) {
	const limit = 4
	pool := NewPool(PoolOptions{Shards: 2, Health: HealthOptions{Disable: true, PendingLimit: limit}})
	defer pool.Close()
	rec := &recorder{}
	if err := pool.Subscribe("s", "sz/#", 1, rec.handler("s")); err != nil {
		t.Fatal(err)
	}
	subShard := pool.ShardFor("s")
	if err := pool.PartitionShard(subShard); err != nil {
		t.Fatal(err)
	}
	var topics []string
	for i := 0; len(topics) < limit+6; i++ {
		topic := fmt.Sprintf("sz/dev-%d/status", i)
		if pool.ShardFor(topic) != subShard {
			topics = append(topics, topic)
		}
	}
	for seq, topic := range topics {
		if err := pool.Publish("pub", topic, []byte(fmt.Sprintf("m%d", seq)), 1, false); err != nil {
			t.Fatal(err)
		}
	}
	if shed := pool.FailoverStats().Shed; shed != 6 {
		t.Fatalf("shed = %d, want 6 (journal limit %d, %d publishes)", shed, limit, limit+6)
	}
	if err := pool.HealShard(subShard); err != nil {
		t.Fatal(err)
	}
	if got := rec.sorted(); len(got) != limit {
		t.Fatalf("heal flushed %d messages, want the %d parked under the limit", len(got), limit)
	}
	// Shed is monotonic: healing does not forgive what was dropped.
	if shed := pool.FailoverStats().Shed; shed != 6 {
		t.Fatalf("shed = %d after heal, want 6", shed)
	}
}

// TestFailoverRedeliversToMigratedClients pins the redelivery counter:
// forwards parked against a dead subscriber shard surface as
// Redelivered once its clients migrate, and the "down" shard event
// reports them with no failed re-anchor or replay.
func TestFailoverRedeliversToMigratedClients(t *testing.T) {
	v := clock.NewVirtual()
	bus := obs.NewBus(nil, v)
	defer bus.Close()
	events := bus.Subscribe(16)
	pool := NewPool(PoolOptions{
		Shards: 3,
		Clock:  v,
		Bus:    bus,
		Health: HealthOptions{DetectAfter: 10 * time.Millisecond},
	})
	defer pool.Close()
	rec := &recorder{}
	if err := pool.Subscribe("s", "rz/#", 1, rec.handler("s")); err != nil {
		t.Fatal(err)
	}
	subShard := pool.ShardFor("s")
	if err := pool.KillShard(subShard); err != nil {
		t.Fatal(err)
	}
	published := 0
	for i := 0; published < 3; i++ {
		topic := fmt.Sprintf("rz/dev-%d/status", i)
		if pool.ShardFor(topic) == subShard {
			continue // homed on the dead shard: that is the replay path, not the forward path
		}
		if err := pool.Publish("pub", topic, []byte("x"), 1, false); err != nil {
			t.Fatal(err)
		}
		published++
	}
	stepUntil(t, v, func() bool {
		return pool.FailoverStats().Failovers == 1
	}, "detection never ran the failover")
	stats := pool.FailoverStats()
	if stats.Redelivered != int64(published) {
		t.Fatalf("redelivered = %d, want %d", stats.Redelivered, published)
	}
	if got := rec.sorted(); len(got) != published {
		t.Fatalf("subscriber saw %d messages, want %d: %v", len(got), published, got)
	}
	if len(stats.RecoverySec) != 1 || stats.RecoverySec[0] < 0 {
		t.Fatalf("recovery samples = %v, want one non-negative duration", stats.RecoverySec)
	}
	ev := <-events.C()
	if ev.Kind != "shard" || ev.Data["state"] != "down" || ev.Data["redelivered"] != published || ev.Data["errors"] != 0 {
		t.Fatalf("failover event = %+v, want down with %d redelivered and 0 errors", ev, published)
	}
}

// TestFailureDetectionIsEventDriven pins detection to one pool-clock
// timer per death: a healthy pool keeps nothing armed, so an unpaced
// clock is moved only by the load, and a kill arms exactly one timer at
// kill + DetectAfter.
func TestFailureDetectionIsEventDriven(t *testing.T) {
	const detect = 40 * time.Millisecond
	far := clock.Epoch.Add(time.Hour)
	newPool := func(t *testing.T) (*Pool, *clock.Virtual) {
		v := clock.NewVirtual()
		v.AdvanceTo(clock.Epoch.Add(time.Second))
		pool := NewPool(PoolOptions{Shards: 3, Clock: v, Health: HealthOptions{DetectAfter: detect}})
		if err := pool.Subscribe("s", "ev/#", 1, func(broker.Message) {}); err != nil {
			t.Fatal(err)
		}
		if err := pool.Publish("pub", "ev/dev-1/status", []byte("x"), 1, false); err != nil {
			t.Fatal(err)
		}
		return pool, v
	}
	// steps fires every armed timer and counts them.
	steps := func(v *clock.Virtual) int {
		n := 0
		for v.Step(far) {
			n++
		}
		return n
	}

	t.Run("healthy pool arms nothing", func(t *testing.T) {
		pool, v := newPool(t)
		defer pool.Close()
		if at, ok := v.NextAt(); ok {
			t.Fatalf("healthy pool armed a timer at %v", at)
		}
	})

	t.Run("kill arms one timer at kill plus DetectAfter", func(t *testing.T) {
		pool, v := newPool(t)
		defer pool.Close()
		killed := v.Now()
		if err := pool.KillShard(1); err != nil {
			t.Fatal(err)
		}
		if at, ok := v.NextAt(); !ok || !at.Equal(killed.Add(detect)) {
			t.Fatalf("next timer = %v (armed %v), want %v", at, ok, killed.Add(detect))
		}
		if n := steps(v); n != 1 {
			t.Fatalf("kill armed %d timers, want 1", n)
		}
		stats := pool.FailoverStats()
		if stats.Failovers != 1 || len(stats.RecoverySec) != 1 || stats.RecoverySec[0] != detect.Seconds() {
			t.Fatalf("failovers = %d, recovery = %v; want 1 at %v", stats.Failovers, stats.RecoverySec, detect.Seconds())
		}
		if down := pool.DownShards(); len(down) != 1 || down[0] != 1 {
			t.Fatalf("down shards = %v, want [1]", down)
		}
	})

	t.Run("revive before detection never fails over", func(t *testing.T) {
		pool, v := newPool(t)
		defer pool.Close()
		if err := pool.KillShard(1); err != nil {
			t.Fatal(err)
		}
		if err := pool.ReviveShard(1); err != nil {
			t.Fatal(err)
		}
		steps(v)
		if n := pool.FailoverStats().Failovers; n != 0 {
			t.Fatalf("failovers = %d after a revive inside the detection window, want 0", n)
		}
		if down := pool.DownShards(); len(down) != 0 {
			t.Fatalf("down shards = %v, want none", down)
		}
	})

	t.Run("double kill fails over once", func(t *testing.T) {
		pool, v := newPool(t)
		defer pool.Close()
		for k := 0; k < 2; k++ {
			if err := pool.KillShard(1); err != nil {
				t.Fatal(err)
			}
		}
		steps(v)
		if n := pool.FailoverStats().Failovers; n != 1 {
			t.Fatalf("failovers = %d, want 1", n)
		}
	})

	t.Run("close disarms a pending detection", func(t *testing.T) {
		pool, v := newPool(t)
		if err := pool.KillShard(1); err != nil {
			t.Fatal(err)
		}
		pool.Close()
		if n := steps(v); n != 0 {
			t.Fatalf("%d timers fired after Close", n)
		}
		if n := pool.FailoverStats().Failovers; n != 0 {
			t.Fatalf("failovers = %d after Close, want 0", n)
		}
	})
}
