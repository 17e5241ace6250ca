package main

import (
	"math/rand"
	"strings"
	"sync/atomic"
	"time"
)

// workload is one system under test plus its closed-loop load. All
// methods run on the single load goroutine.
type workload interface {
	// setup builds the system and connects the load clients:
	// everything a run needs before its first operation.
	setup() error
	// op issues one operation and waits for its outcome. lat is the
	// latency a user of the system would see, units the work it
	// completed. A failed, timed-out or wrong-payload operation returns
	// an error.
	op() (lat time.Duration, units int, err error)
	// verify is the end-of-run oracle over everything op could not
	// check one operation at a time.
	verify() error
	// layers reports the counters the traced run reads at the layer
	// boundaries.
	layers(m map[string]metric)
	// teardown stops everything setup started and waits for it.
	teardown()
}

// workloadSpec names a workload and says why it exists.
type workloadSpec struct {
	name string
	why  string
	// setupCycles is how many times an untraced run builds the scene;
	// setup_s is their median. Cheap set-ups repeat more: enough for
	// the medians of two sets of ten runs to agree well inside the
	// bound.
	setupCycles int
	// traceEvery keeps the spans of one operation in this many, so the
	// span log of a 25k-ops/s loop stays small enough not to become the
	// workload.
	traceEvery int
	build      func(seed int64, tr *tracer) workload
}

// workloads is the fixed list; the names are stable and BENCHMARK.json
// repeats them.
var workloads = []workloadSpec{
	{
		name:        "rest_status",
		why:         "paper §4: REST GET of a mock's status over 1000 mocks, 100 rooms, 5 buildings on 2 nodes; only workload where kube/core deployment cost and per-mock memory are large enough to read",
		setupCycles: 5,
		traceEvery:  8,
		build:       func(seed int64, tr *tracer) workload { return &restWorkload{seed: seed, tr: tr} },
	},
	{
		name:        "scene_fanout",
		why:         "paper Fig. 2/5/6 end to end: REST PATCH of a Room, wait for all 50 correlated mock statuses over MQTT/TCP; model writes, watch fan-out and the digi reconciler dominate",
		setupCycles: 51,
		traceEvery:  1,
		build:       func(seed int64, tr *tracer) workload { return &sceneWorkload{seed: seed, tr: tr} },
	},
	{
		name:        "wire_pubsub",
		why:         "QoS-1 publish to one wire subscriber on loopback: codec, socket, session queue, write loop and ack do all the work, route() sees one match; the bypass control for route() changes",
		setupCycles: 201,
		traceEvery:  16,
		build:       func(seed int64, tr *tracer) workload { return &wireWorkload{seed: seed, tr: tr} },
	},
	{
		name:        "wire_fanout",
		why:         "wire_pubsub plus 64 in-process sessions with two overlapping filters each: trie match, per-publish dedup map and per-delivery Packet allocation dominate; exercises route()",
		setupCycles: 201,
		traceEvery:  16,
		build:       func(seed int64, tr *tracer) workload { return &wireWorkload{seed: seed, tr: tr, fanout: true} },
	},
	{
		name:        "timewarp_fleet",
		why:         "1000 profiled devices at -speed max on a 4-shard in-process plane, no socket or HTTP: clock.Virtual, swarm generator heap, profile sampler, pool and bridge dominate; oracle is exact",
		setupCycles: 25,
		traceEvery:  1,
		build:       func(seed int64, tr *tracer) workload { return &fleetWorkload{seed: seed, tr: tr} },
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, s := range workloads {
		if s.name == name {
			return s, true
		}
	}
	return workloadSpec{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, s := range workloads {
		names[i] = s.name
	}
	return strings.Join(names, ", ")
}

// tracer is the span log of a traced run plus what the hooks on other
// goroutines need: a common time base and an on/off switch (off during
// warm-up and the untraced baseline).
type tracer struct {
	spanLog
	epoch time.Time
	every int
	seen  int
	on    atomic.Bool
}

func (t *tracer) start() {
	t.epoch = time.Now()
	t.on.Store(true)
}

func (t *tracer) stop() { t.on.Store(false) }

// active reports whether spans are being recorded; safe on a nil
// tracer (an untraced run).
func (t *tracer) active() bool { return t != nil && t.on.Load() }

// now is nanoseconds since the traced run began.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// at converts a wall timestamp to the tracer's time base.
func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.epoch)) }

// keep reports whether the operation now ending has its spans kept.
func (t *tracer) keep() bool {
	t.seen++
	return t.seen%t.every == 0
}

// permutation returns 0..n-1 in seed order.
func permutation(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}
