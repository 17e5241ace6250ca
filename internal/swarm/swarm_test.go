package swarm

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/obs"
	"repro/internal/profile"
)

func TestRingPlacement(t *testing.T) {
	r := newRing(4)
	// Deterministic: same key, same shard, every time.
	for _, key := range []string{"swarm/dev-1/status", "app-a", "x"} {
		first := r.shardFor(key)
		for i := 0; i < 10; i++ {
			if got := r.shardFor(key); got != first {
				t.Fatalf("shardFor(%q) flapped: %d then %d", key, first, got)
			}
		}
	}
	// Roughly uniform: over 10k device topics each of 4 shards should
	// hold a non-trivial share (loose bounds; vnodes keep skew low).
	counts := make([]int, 4)
	for i := 0; i < 10000; i++ {
		counts[r.shardFor(DeviceTopic("swarm", i))]++
	}
	for s, c := range counts {
		if c < 1000 || c > 5000 {
			t.Fatalf("shard %d holds %d of 10000 keys — ring badly skewed: %v", s, c, counts)
		}
	}
}

// hashKey is FNV-1a exactly as hash/fnv computes it, and pools of one
// size share one ring whose down set stays their own.
func TestRingHashAndSharedPoints(t *testing.T) {
	for _, key := range []string{"", "x", "swarm/dev-1/status", "shard-3#255", "app-\u00e9"} {
		h := fnv.New64a()
		h.Write([]byte(key))
		if got, want := hashKey(key), h.Sum64(); got != want {
			t.Errorf("hashKey(%q) = %#x, want %#x", key, got, want)
		}
	}
	a, b := newRing(4), newRing(4)
	if &a.points[0] != &b.points[0] {
		t.Error("two 4-shard rings built separate point slices")
	}
	a.markDown(1)
	if b.isDown(1) || b.alive != 4 {
		t.Error("marking a shard down on one ring leaked into another")
	}
	if n := testing.AllocsPerRun(100, func() { b.shardFor("swarm/dev-1/status") }); n != 0 {
		t.Errorf("shardFor allocates %v times", n)
	}
}

func TestLoadSpecValidate(t *testing.T) {
	defaulted := LoadSpec{}.WithDefaults()
	if err := defaulted.Validate(); err != nil {
		t.Fatalf("defaulted spec rejected: %v", err)
	}
	for name, tc := range map[string]struct {
		spec LoadSpec
		want string
	}{
		"bogus profile": {LoadSpec{Profile: "bogus"}, "unknown profile"},
		"qos 2":         {LoadSpec{QoS: 2}, "qos must be 0 or 1"},
		// 101 msg/s/device: the sampler's 1 ms gap floor would bias the
		// Poisson stream, and the message says how to fix the spec.
		"open too hot": {LoadSpec{Profile: ProfileOpen, Devices: 100, Rate: 10100}, "raise -devices to at least 101"},
		// Same floor, closed preset: the run would be paced at 1 ms and
		// publish fewer than Devices × Duration/Period.
		"closed too fast": {LoadSpec{Period: 999 * time.Microsecond}, "under the 1ms the sampler can pace"},
	} {
		err := tc.spec.WithDefaults().Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", name, err, tc.want)
		}
	}
	atLimit := LoadSpec{Profile: ProfileOpen, Devices: 100, Rate: 10000}.WithDefaults()
	if err := atLimit.Validate(); err != nil {
		t.Fatalf("100 msg/s/device rejected: %v", err)
	}
	if err := (LoadSpec{Period: time.Millisecond}).WithDefaults().Validate(); err != nil {
		t.Fatalf("1 ms period rejected: %v", err)
	}
}

// scheduled is the message count profile.Digest gives for spec — what
// a run must publish, exactly.
func scheduled(t *testing.T, spec LoadSpec) int64 {
	t.Helper()
	spec = spec.WithDefaults()
	_, n, err := profile.Digest(spec.EffectiveProfile(), spec.Devices, spec.Seed, spec.Duration, spec.Prefix)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestOpenLoopDeterminism runs the open preset at acceptance size
// twice: the two runs are byte-identical, publish exactly the count
// the clock-free schedule has, and that count is the offered load —
// Rate × Duration within the ±3 % a seeded 10k-device Poisson fleet
// is allowed.
func TestOpenLoopDeterminism(t *testing.T) {
	spec := LoadSpec{
		Profile: ProfileOpen, Devices: 10000, Rate: 20000,
		Duration: time.Second, Workers: 3, Seed: 42,
	}
	a, b := runAtMax(t, spec), runAtMax(t, spec)
	sameStreams(t, "second run", b, a)
	n := int64(countMsgs(a))
	if want := scheduled(t, spec); n != want {
		t.Fatalf("published %d, the schedule has %d", n, want)
	}
	if offered := spec.Rate * spec.Duration.Seconds(); math.Abs(float64(n)-offered) > 0.03*offered {
		t.Fatalf("published %d, want %.0f ±3%%", n, offered)
	}
}

// TestClosedLoopCoverage checks the closed preset at every worker
// count: each device fires exactly Duration/Period times, so the run
// publishes Devices × Duration/Period, and the message set is the same
// however the devices are shared out.
func TestClosedLoopCoverage(t *testing.T) {
	spec := closedSpec()
	cycles := int(spec.Duration / spec.Period)
	if want := int64(spec.Devices * cycles); scheduled(t, spec) != want {
		t.Fatalf("the schedule has %d messages, want %d", scheduled(t, spec), want)
	}
	oracle := walkOracle(t, spec)
	for _, workers := range []int{1, 3, 4, 7} {
		spec.Workers = workers
		got := runAtMax(t, spec)
		sameStreams(t, fmt.Sprintf("%d workers", workers), got, oracle)
		for d := 0; d < spec.Devices; d++ {
			if len(got[d]) != cycles {
				t.Fatalf("%d workers: device %d fired %d times, want %d", workers, d, len(got[d]), cycles)
			}
		}
	}
}

// TestSessionClosedLoop runs a small end-to-end closed-preset session
// over a 3-shard pool and requires exact QoS 1 accounting: published
// == the schedule, zero loss, delivered == published × subscribers.
func TestSessionClosedLoop(t *testing.T) {
	testSessionProfile(t, LoadSpec{
		Profile: ProfileClosed, Devices: 40, Period: 30 * time.Millisecond,
		Duration: 210 * time.Millisecond, Workers: 4, QoS: 1, Subs: 3, Seed: 7,
	}, 40*7)
}

// TestSessionOpenLoop does the same for the open (Poisson) preset.
func TestSessionOpenLoop(t *testing.T) {
	spec := LoadSpec{
		Profile: ProfileOpen, Devices: 40, Rate: 3000,
		Duration: 200 * time.Millisecond, Workers: 4, QoS: 1, Subs: 3, Seed: 7,
	}
	testSessionProfile(t, spec, scheduled(t, spec))
}

func testSessionProfile(t *testing.T, spec LoadSpec, want int64) {
	t.Helper()
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(reg)
	tracer.SetSampleInterval(1) // every message, so quantiles have samples
	pool := NewPool(PoolOptions{Shards: 3, Obs: reg, Tracer: tracer})
	defer pool.Close()
	sess, err := NewSession(pool, spec, reg)
	if err != nil {
		t.Fatal(err)
	}
	var tapMu sync.Mutex
	tapped := map[string][]firedMsg{}
	sess.SetTap(func(at time.Duration, topic string, payload []byte) {
		tapMu.Lock()
		tapped[topic] = append(tapped[topic], firedMsg{at, append([]byte(nil), payload...)})
		tapMu.Unlock()
	})
	var wg sync.WaitGroup
	for w := 0; w < sess.Workers(); w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := sess.RunWorker(context.Background(), w); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	rep := sess.Finish(5 * time.Second)
	if rep.Published != want || want != scheduled(t, spec) {
		t.Fatalf("published %d, want %d, the schedule has %d", rep.Published, want, scheduled(t, spec))
	}
	// The publish-side tap carries the schedule's own offsets, to the
	// nanosecond, although this run is paced on the wall clock.
	for d, want := range walkOracle(t, spec) {
		got := tapped[DeviceTopic("swarm", d)]
		if len(got) != len(want) {
			t.Fatalf("tap saw %d messages of device %d, want %d", len(got), d, len(want))
		}
		for i := range want {
			if got[i].at != want[i].at || !bytes.Equal(got[i].payload, want[i].payload) {
				t.Fatalf("tap: device %d message %d is (%v, %s), the schedule has (%v, %s)",
					d, i, got[i].at, got[i].payload, want[i].at, want[i].payload)
			}
		}
	}
	if rep.Lost != 0 {
		t.Fatalf("lost %d of %d expected deliveries: %+v", rep.Lost, rep.Expected, rep)
	}
	if rep.Delivered != rep.Published*int64(spec.Subs) {
		t.Fatalf("delivered %d, want %d", rep.Delivered, rep.Published*int64(spec.Subs))
	}
	if err := rep.Gate(10_000); err != nil {
		t.Fatalf("gate failed: %v", err)
	}
	if rep.LatencySamples == 0 || rep.P99Ms <= 0 {
		t.Fatalf("no latency samples in report: %+v", rep)
	}
	if rep.Shards != 3 || len(rep.PerShard) != 3 {
		t.Fatalf("per-shard stats missing: %+v", rep)
	}
	// With 3 shards and wildcard consumers spread by client hash, the
	// bridge must have forwarded something.
	if rep.BridgeForwards == 0 {
		t.Fatal("bridge forwarded nothing — pool degenerated to one shard")
	}
	// Round-trip the JSON artifact.
	path := t.TempDir() + "/BENCH_swarm.json"
	if err := rep.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
}

// TestRequiredShards pins the guidance function V015 and dbox share.
func TestRequiredShards(t *testing.T) {
	cases := map[int]int{1: 1, 999: 1, 1000: 1, 1001: 2, 2000: 2, 2001: 3, 10000: 10}
	for devices, want := range cases {
		if got := RequiredShards(devices); got != want {
			t.Fatalf("RequiredShards(%d) = %d, want %d", devices, got, want)
		}
	}
}

// TestPoolMetricsFamilies checks the pool registers its aggregate
// families and they gather live values.
func TestPoolMetricsFamilies(t *testing.T) {
	reg := obs.NewRegistry()
	pool := NewPool(PoolOptions{Shards: 2, Obs: reg})
	defer pool.Close()
	done := make(chan struct{})
	if err := pool.Subscribe("m", "m/+/x", 0, func(broker.Message) { close(done) }); err != nil {
		t.Fatal(err)
	}
	if err := pool.Publish("p", "m/1/x", []byte("v"), 0, false); err != nil {
		t.Fatal(err)
	}
	<-done
	vals := reg.Values()
	if vals["digibox_swarm_shards"] != 2 {
		t.Fatalf("digibox_swarm_shards = %v", vals["digibox_swarm_shards"])
	}
	if vals["digibox_swarm_publishes_total"] < 1 {
		t.Fatalf("digibox_swarm_publishes_total = %v", vals["digibox_swarm_publishes_total"])
	}
	if vals["digibox_swarm_deliveries_total"] < 1 {
		t.Fatalf("digibox_swarm_deliveries_total = %v", vals["digibox_swarm_deliveries_total"])
	}
}

// TestPoolPublishAllocations gates the per-message pool path: a QoS 1
// publish into a 4-shard pool, fanned out over the bridge to a swarm
// run's two consumers and its capture tap, allocates nothing. (The race
// detector makes sync.Pool drop entries at random, so the count only
// holds without it.)
func TestPoolPublishAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool discards entries under -race")
	}
	pool := NewPool(PoolOptions{Shards: 4})
	defer pool.Close()
	delivered := 0
	for _, id := range []string{"swarm-sub-0", "swarm-sub-1", "capture-tap"} {
		if err := pool.Subscribe(id, "swarm/+/status", 1, func(broker.Message) { delivered++ }); err != nil {
			t.Fatal(err)
		}
	}
	topic, payload := DeviceTopic("swarm", 7), []byte(`{"v":0.5}`)
	n := testing.AllocsPerRun(200, func() {
		if err := pool.Publish(loadFrom, topic, payload, 1, false); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("QoS 1 Pool.Publish: %v allocations, want 0", n)
	}
	if delivered != 201*3 { // AllocsPerRun runs the function once more to warm up
		t.Errorf("delivered %d, want %d", delivered, 201*3)
	}
	if pool.Stats().BridgeForwards == 0 {
		t.Error("no publish crossed the bridge: the gate does not cover the forward path")
	}
}
