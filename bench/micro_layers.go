package main

// The micro phase of a traced run: each layer's public functions timed
// in isolation, so a movement in an end-to-end metric can be attributed
// to the layer that caused it. README.md says which end-to-end metric
// each number should move, and on which workload.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	digibox "repro"
	"repro/internal/broker"
	"repro/internal/clock"
	"repro/internal/device"
	"repro/internal/digi"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/replay"
	"repro/internal/rest"
	"repro/internal/scene"
	"repro/internal/swarm"
	"repro/internal/trace"
	"repro/internal/yamlite"
)

// sink keeps results alive so the compiler cannot drop the measured
// calls.
var sink any

// microPhase runs every micro benchmark and files the results in m.
func microPhase(m map[string]metric, seed int64) error {
	for _, phase := range []func(map[string]metric, int64) error{
		microHarness, microCodec, microRoute, microWire, microModel, microTestbed,
		microSwarm, microClock, microProfile, microObs, microTrace, microReplay, microYamlite,
	} {
		if err := phase(m, seed); err != nil {
			return err
		}
	}
	return nil
}

// perOp is testing.Benchmark's time per call of fn's loop body, with
// the digits NsPerOp rounds away. main sets the benchmark time.
func perOp(fn func(n int)) float64 {
	r := testing.Benchmark(func(b *testing.B) { fn(b.N) })
	return float64(r.T) / float64(r.N)
}

func ns(v float64) metric { return metric{v, "ns"} }
func us(v float64) metric { return metric{v / 1e3, "us"} }
func ms(v float64) metric { return metric{v / 1e6, "ms"} }

func microHarness(m map[string]metric, _ int64) error {
	var total time.Duration
	m["harness.timer_overhead_ns"] = ns(perOp(func(n int) {
		for i := 0; i < n; i++ {
			t := time.Now()
			total += time.Since(t)
		}
	}))
	sink = total
	return nil
}

func microCodec(m map[string]metric, seed int64) error {
	for _, c := range []struct {
		suffix string
		size   int
		allocs bool
	}{{"", wirePayload, true}, {"_1k", 1024, false}} {
		pkt := &broker.Packet{
			Type: broker.PUBLISH, Topic: "bench/dev-123/status",
			Payload: bytes.Repeat([]byte{byte(seed)}, c.size), QoS: 1, PacketID: 7,
		}
		data, err := pkt.Encode()
		if err != nil {
			return err
		}
		rd := bytes.NewReader(data)
		decode := func() {
			rd.Reset(data)
			p, err := broker.ReadPacket(rd)
			if err != nil || len(p.Payload) != c.size {
				panic(fmt.Sprintf("bench: decode of an encoded PUBLISH failed: %v", err))
			}
		}
		m["broker.encode_publish"+c.suffix+"_ns"] = ns(perOp(func(n int) {
			for i := 0; i < n; i++ {
				sink, _ = pkt.Encode()
			}
		}))
		m["broker.decode_publish"+c.suffix+"_ns"] = ns(perOp(func(n int) {
			for i := 0; i < n; i++ {
				decode()
			}
		}))
		if c.allocs {
			m["broker.encode_publish_allocs"] = metric{testing.AllocsPerRun(200, func() { sink, _ = pkt.Encode() }), "count"}
			m["broker.decode_publish_allocs"] = metric{testing.AllocsPerRun(200, decode), "count"}
		}
	}
	return nil
}

// fanoutBroker is an unlistened broker with sessions in-process
// sessions, each holding the filters.
func fanoutBroker(sessions int, filters ...string) (*broker.Broker, error) {
	br := broker.NewBroker(nil)
	for k := 0; k < sessions; k++ {
		for _, f := range filters {
			if err := br.SubscribeInProcess(fmt.Sprintf("s%d", k), f, 1, func(broker.Message) {}); err != nil {
				return nil, err
			}
		}
	}
	return br, nil
}

func microRoute(m map[string]metric, _ int64) error {
	payload := bytes.Repeat([]byte{'x'}, wirePayload)
	publish := func(br *broker.Broker, qos byte, retain bool) func(n int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				if err := br.PublishQoS("bench", "bench/dev-5/status", payload, qos, retain); err != nil {
					panic(err) // a valid topic on an open broker cannot fail
				}
			}
		}
	}
	fan1, err := fanoutBroker(1, "bench/+/status")
	if err != nil {
		return err
	}
	defer fan1.Close()
	m["broker.route_fan1_ns"] = ns(perOp(publish(fan1, 1, false)))
	// The digi runtime's status path: QoS 0, retained.
	m["broker.route_retained_ns"] = ns(perOp(publish(fan1, 0, true)))

	fan64, err := fanoutBroker(wireSessions, "bench/#", "bench/+/status")
	if err != nil {
		return err
	}
	defer fan64.Close()
	m["broker.route_fan64_ns"] = ns(perOp(publish(fan64, 1, false)))
	one := publish(fan64, 1, false)
	m["broker.route_fan64_allocs"] = metric{testing.AllocsPerRun(100, func() { one(1) }), "count"}
	m["broker.subscribe_unsubscribe_ns"] = ns(perOp(func(n int) {
		for i := 0; i < n; i++ {
			if err := fan64.SubscribeInProcess("churn", "bench/+/status", 1, func(broker.Message) {}); err != nil {
				panic(err)
			}
			fan64.UnsubscribeInProcess("churn", "bench/+/status")
		}
	}))

	nomatch := broker.NewBroker(nil)
	defer nomatch.Close()
	for i := 0; i < 1000; i++ {
		if err := nomatch.SubscribeInProcess("s", fmt.Sprintf("bench/dev-%d/cmd", i), 1, func(broker.Message) {}); err != nil {
			return err
		}
	}
	m["broker.route_nomatch_1k_ns"] = ns(perOp(publish(nomatch, 1, false)))
	return nil
}

func microWire(m map[string]metric, _ int64) error {
	br := broker.NewBroker(nil)
	if err := br.ListenAndServe("127.0.0.1:0"); err != nil {
		return err
	}
	defer br.Close()
	c, err := broker.Dial(br.Addr(), &broker.ClientOptions{ClientID: "micro-pub", AckTimeout: opTimeout})
	if err != nil {
		return err
	}
	defer c.Close()
	payload := bytes.Repeat([]byte{'x'}, wirePayload)
	var failed error
	m["broker.qos1_ack_us"] = us(perOp(func(n int) {
		for i := 0; i < n; i++ {
			if err := c.Publish("bench/dev-5/status", payload, 1, false); err != nil {
				failed = err
			}
		}
	}))
	m["broker.dial_connect_us"] = us(perOp(func(n int) {
		for i := 0; i < n; i++ {
			d, err := broker.Dial(br.Addr(), &broker.ClientOptions{ClientID: "micro-dial"})
			if err != nil {
				failed = err
				continue
			}
			d.Close()
		}
	}))
	return failed
}

func microModel(m map[string]metric, _ int64) error {
	schema := device.NewOccupancy().Schema
	doc := schema.New("o1")
	m["model.doc_deepcopy_ns"] = ns(perOp(func(n int) {
		for i := 0; i < n; i++ {
			sink = doc.DeepCopy()
		}
	}))
	var failed error
	m["model.schema_validate_ns"] = ns(perOp(func(n int) {
		for i := 0; i < n; i++ {
			if err := schema.Validate(doc); err != nil {
				failed = err
			}
		}
	}))
	patchLoop := func(st *model.Store) func(n int) {
		v := false
		return func(n int) {
			for i := 0; i < n; i++ {
				v = !v
				if _, err := st.Patch("o1", map[string]any{"triggered": v}); err != nil {
					failed = err
				}
			}
		}
	}
	st := model.NewStore()
	if err := st.Create(doc); err != nil {
		return err
	}
	m["model.store_get_ns"] = ns(perOp(func(n int) {
		for i := 0; i < n; i++ {
			sink, _, _ = st.Get("o1")
		}
	}))
	m["model.store_patch_ns"] = ns(perOp(patchLoop(st)))
	// 100 watchers that filter the update out, as 100 other digis'
	// reconcilers would.
	for i := 0; i < 100; i++ {
		defer st.WatchName(fmt.Sprintf("other%d", i)).Close()
	}
	m["model.store_patch_w100_ns"] = ns(perOp(patchLoop(st)))
	return failed
}

// microTestbed covers the layers that only exist inside a running
// Testbed: the REST gateway, the dbox verbs of Table 1 (through kube
// and the repositories), and the metrics snapshot.
func microTestbed(m map[string]metric, _ int64) error {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(buildDir, "repo-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	tb, err := digibox.New(digibox.Options{
		LocalRepoDir:  filepath.Join(dir, "local"),
		RemoteRepoDir: filepath.Join(dir, "remote"),
	})
	if err != nil {
		return err
	}
	if err := tb.Start(); err != nil {
		return err
	}
	defer tb.Stop()
	parked := map[string]any{"interval_ms": int64(3600000)}
	for _, d := range [][2]string{{"Occupancy", "O1"}, {"Lamp", "L1"}} {
		if err := tb.Run(d[0], d[1], parked); err != nil {
			return err
		}
	}
	for _, room := range []string{"R1", "R2"} {
		if err := tb.Run("Room", room, map[string]any{"managed": false}); err != nil {
			return err
		}
	}
	var failed error
	note := func(err error) {
		if err != nil {
			failed = err
		}
	}

	hc := &http.Client{Timeout: opTimeout, Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer hc.CloseIdleConnections()
	cli := &rest.Client{Base: "http://" + tb.RESTAddr(), HTTP: hc}
	m["rest.client_status_us"] = us(perOp(func(n int) {
		for i := 0; i < n; i++ {
			_, err := cli.Status("O1")
			note(err)
		}
	}))
	// The same handler through ServeHTTP, no socket: client − handler
	// is the HTTP and socket share.
	h := tb.Gateway.Handler()
	serve := func(method, path, body string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			failed = fmt.Errorf("%s %s: status %d", method, path, rec.Code)
		}
	}
	m["rest.handler_status_us"] = us(perOp(func(n int) {
		for i := 0; i < n; i++ {
			serve(http.MethodGet, "/v1/models/O1/status", "")
		}
	}))
	presence := false
	m["rest.handler_patch_us"] = us(perOp(func(n int) {
		for i := 0; i < n; i++ {
			presence = !presence
			serve(http.MethodPatch, "/v1/models/R2", fmt.Sprintf(`{"human_presence":%t}`, presence))
		}
	}))

	// Table 1's verbs.
	w := tb.Watch("O1")
	triggered := false
	m["core.edit_to_watch_us"] = us(perOp(func(n int) {
		for i := 0; i < n; i++ {
			triggered = !triggered
			note(tb.Edit("O1", map[string]any{"triggered": triggered}))
			<-w.C
		}
	}))
	w.Close()
	seq := 0
	m["core.run_stop_us"] = us(perOp(func(n int) {
		for i := 0; i < n; i++ {
			seq++
			name := fmt.Sprintf("lamp-%d", seq)
			note(tb.Run("Lamp", name, parked))
			note(tb.StopDigi(name))
		}
	}))
	m["core.attach_detach_us"] = us(perOp(func(n int) {
		for i := 0; i < n; i++ {
			note(tb.Attach("L1", "R1"))
			note(tb.Detach("L1", "R1"))
		}
	}))
	if err := tb.Attach("L1", "R1"); err != nil {
		return err
	}
	m["core.commit_us"] = us(perOp(func(n int) {
		for i := 0; i < n; i++ {
			_, err := tb.CommitScene("R1")
			note(err)
		}
	}))
	m["core.push_pull_us"] = us(perOp(func(n int) {
		for i := 0; i < n; i++ {
			note(tb.Push("R1"))
			note(tb.Pull("R1"))
		}
	}))
	m["obs.snapshot_ms"] = ms(perOp(func(n int) {
		for i := 0; i < n; i++ {
			sink = tb.Obs.Snapshot()
		}
	}))
	return failed
}

func microSwarm(m map[string]metric, seed int64) error {
	payload := bytes.Repeat([]byte{'x'}, wirePayload)
	topics := make([]string, wireTopics)
	for i := range topics {
		topics[i] = swarm.DeviceTopic("bench", i)
	}
	var failed error
	for _, c := range []struct {
		name   string
		shards int
	}{{"swarm.pool_publish_local_ns", 1}, {"swarm.pool_publish_4shard_ns", fleetShards}} {
		pool := swarm.NewPool(swarm.PoolOptions{Shards: c.shards, Health: swarm.HealthOptions{Disable: true}})
		if err := pool.Subscribe("micro-sub", "bench/+/status", 1, func(broker.Message) {}); err != nil {
			pool.Close()
			return err
		}
		next := 0
		m[c.name] = ns(perOp(func(n int) {
			for i := 0; i < n; i++ {
				next = (next + 1) % len(topics)
				if err := pool.Publish("micro", topics[next], payload, 1, false); err != nil {
					failed = err
				}
			}
		}))
		pool.Close()
	}

	// The generator alone: the 40-device city on an unpaced virtual
	// clock, firing into nothing.
	sparse, err := cityProfile(seed, 1)
	if err != nil {
		return err
	}
	var fired int
	gen, err := swarm.NewGenerator(swarm.LoadSpec{
		DeviceProfile: sparse, Duration: 2 * time.Minute, Workers: 1, Seed: seed,
	}, func(int, uint64, []byte) { fired++ })
	if err != nil {
		return err
	}
	clk := clock.NewScaled(clock.SpeedMax, nil)
	gen.SetClock(clk)
	go clk.Drive() // ends at clk.Stop below
	t0 := time.Now()
	err = gen.RunWorker(context.Background(), 0)
	el := time.Since(t0)
	clk.Stop()
	if err != nil {
		return err
	}
	if fired == 0 {
		return fmt.Errorf("the generator fired nothing")
	}
	m["swarm.generator_fire_ns"] = ns(float64(el) / float64(fired))

	// The same sparse city end to end: with 40 devices the run is bound
	// by clock steps, not by routing.
	const window = 2 * time.Minute
	oracle, err := newFleetOracle(sparse, window)
	if err != nil {
		return err
	}
	tb, err := newFleetTestbed()
	if err != nil {
		return err
	}
	defer tb.Stop()
	t0 = time.Now()
	if _, err := runFleet(tb, sparse, window, oracle, nil); err != nil {
		return fmt.Errorf("sparse fleet: %w", err)
	}
	m["swarm.sparse_fleet_msgs_per_s"] = metric{float64(oracle.total) / time.Since(t0).Seconds(), "1/s"}
	return failed
}

func microClock(m map[string]metric, _ int64) error {
	far := clock.Epoch.Add(1000 * time.Hour)
	v := clock.NewVirtual()
	m["clock.virtual_afterfunc_ns"] = ns(perOp(func(n int) {
		for i := 0; i < n; i++ {
			v.AfterFunc(time.Millisecond, func() {})
			v.Step(far)
		}
	}))
	// 1000 pending timers, each re-arming itself when it fires: the
	// heap a 1000-device fleet keeps.
	deep := clock.NewVirtual()
	var rearm func()
	rearm = func() { deep.Schedule(time.Second, rearm) }
	for i := 0; i < 1000; i++ {
		deep.Schedule(time.Duration(i)*time.Millisecond, rearm)
	}
	m["clock.virtual_step_ns"] = ns(perOp(func(n int) {
		for i := 0; i < n; i++ {
			deep.Step(far)
		}
	}))
	return nil
}

func microProfile(m map[string]metric, seed int64) error {
	p, err := cityProfile(seed, fleetScale)
	if err != nil {
		return err
	}
	var failed error
	m["profile.compile_1000_ms"] = ms(perOp(func(n int) {
		for i := 0; i < n; i++ {
			s, err := profile.Compile(p, 0, seed)
			if err != nil {
				failed = err
			}
			sink = s
		}
	}))
	s, err := profile.Compile(p, 0, seed)
	if err != nil {
		return err
	}
	dev := 0
	m["profile.next_fire_ns"] = ns(perOp(func(n int) {
		for i := 0; i < n; i++ {
			dev = (dev + 1) % s.Devices()
			_, sink = s.NextFire(dev)
		}
	}))
	t0 := time.Now()
	_, total, err := profile.Digest(p, 0, seed, fleetWindow, fleetPrefix)
	if err != nil {
		return err
	}
	m["profile.digest_msgs_per_s"] = metric{float64(total) / time.Since(t0).Seconds(), "1/s"}
	return failed
}

func microObs(m map[string]metric, _ int64) error {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(reg)
	tr.SetSampleInterval(1)
	m["obs.span_ns"] = ns(perOp(func(n int) {
		for i := 0; i < n; i++ {
			tr.End(tr.Start("o1", "digibox/o1/status"))
		}
	}))
	c := reg.Counter("digibox_bench_ops_total", "micro benchmark counter")
	m["obs.counter_inc_ns"] = ns(perOp(func(n int) {
		for i := 0; i < n; i++ {
			c.Inc()
		}
	}))
	h := reg.Histogram("digibox_bench_op_seconds", "micro benchmark histogram", nil)
	m["obs.histogram_observe_ns"] = ns(perOp(func(n int) {
		for i := 0; i < n; i++ {
			h.Observe(0.00042)
		}
	}))
	return nil
}

func microTrace(m map[string]metric, _ int64) error {
	record := trace.Record{Kind: trace.KindMessage, Name: "o1", Topic: "digibox/o1/status", Payload: `{"triggered":true}`, Direction: "send"}
	m["trace.append_ns"] = ns(perOp(func(n int) {
		var l *trace.Log
		for i := 0; i < n; i++ {
			if i%4096 == 0 {
				l = trace.NewLog() // the log only grows
			}
			l.Append(record)
		}
	}))
	return nil
}

// repoFile opens a file of the repository the benchmark lives in, from
// the repository root or from bench/.
func repoFile(rel string) ([]byte, error) {
	data, err := os.ReadFile(rel)
	if os.IsNotExist(err) {
		data, err = os.ReadFile(filepath.Join("..", rel))
	}
	return data, err
}

// microReplay records examples/dayinthelife's 24-hour scenario on the
// deterministic engine; the trace must equal the committed golden one
// byte for byte.
func microReplay(m map[string]metric, _ int64) error {
	data, err := repoFile("examples/dayinthelife/scenario.yaml")
	if err != nil {
		return err
	}
	golden, err := repoFile("examples/dayinthelife/testdata/dayinthelife.trace.jsonl")
	if err != nil {
		return err
	}
	sc, err := replay.ParseScenario(data)
	if err != nil {
		return err
	}
	reg := digi.NewRegistry()
	if err := device.RegisterAll(reg); err != nil {
		return err
	}
	if err := scene.RegisterAll(reg); err != nil {
		return err
	}
	var runs [3]float64
	var res *replay.Result
	for i := range runs {
		t0 := time.Now()
		if res, err = replay.Record(reg, sc); err != nil {
			return err
		}
		runs[i] = float64(time.Since(t0))
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range res.Records {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		return fmt.Errorf("replay of dayinthelife (digest %s) diverged from the committed golden trace", res.Digest)
	}
	m["replay.day_record_ms"] = ms(median(runs[:]))
	m["replay.records_per_s"] = metric{float64(len(res.Records)) / (median(runs[:]) / 1e9), "1/s"}
	return nil
}

func microYamlite(m map[string]metric, _ int64) error {
	// A Room with 50 attached mocks: the largest document the timed
	// workloads hold.
	doc := scene.NewRoom().Schema.New(sceneRoom)
	att := make([]any, sceneMocks)
	for i := range att {
		att[i] = mockName(i)
	}
	doc.Set("meta.attach", att)
	data, err := yamlite.Encode(map[string]any(doc))
	if err != nil {
		return err
	}
	var failed error
	m["yamlite.encode_doc_us"] = us(perOp(func(n int) {
		for i := 0; i < n; i++ {
			if sink, err = yamlite.Encode(map[string]any(doc)); err != nil {
				failed = err
			}
		}
	}))
	m["yamlite.decode_doc_us"] = us(perOp(func(n int) {
		for i := 0; i < n; i++ {
			if sink, err = yamlite.Decode(data); err != nil {
				failed = err
			}
		}
	}))
	return failed
}
