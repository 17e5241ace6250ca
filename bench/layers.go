package main

// layerMetric declares one per-layer metric. BENCHMARK.json repeats
// this list (a test keeps the two in step).
type layerMetric struct {
	name, unit, better string
}

// layerList is every per-layer metric a traced run prints. A metric
// the workload at hand never touches reads 0 — itself a statement:
// the broker does nothing on timewarp_fleet's virtual plane, say.
var layerList = []layerMetric{
	// Wire codec and the client↔broker exchange → wire_pubsub.
	{"broker.encode_publish_ns", "ns", "lower"},
	{"broker.encode_publish_allocs", "count", "lower"},
	{"broker.decode_publish_ns", "ns", "lower"},
	{"broker.decode_publish_allocs", "count", "lower"},
	{"broker.encode_publish_1k_ns", "ns", "lower"},
	{"broker.decode_publish_1k_ns", "ns", "lower"},
	{"broker.qos1_ack_us", "us", "lower"},
	{"broker.dial_connect_us", "us", "lower"},
	// route(): trie match, per-client dedup, per-delivery Packet →
	// wire_fanout, timewarp_fleet; fan1/retained → scene_fanout.
	{"broker.route_fan1_ns", "ns", "lower"},
	{"broker.route_fan64_ns", "ns", "lower"},
	{"broker.route_fan64_allocs", "count", "lower"},
	{"broker.route_nomatch_1k_ns", "ns", "lower"},
	{"broker.route_retained_ns", "ns", "lower"},
	{"broker.subscribe_unsubscribe_ns", "ns", "lower"},
	// Broker.Stats() of the traced workload.
	{"broker.publishes_in", "count", "higher"},
	{"broker.messages_out", "count", "higher"},
	{"broker.dropped", "count", "lower"},
	// REST gateway → rest_status; handler_patch → scene_fanout.
	{"rest.client_status_us", "us", "lower"},
	{"rest.handler_status_us", "us", "lower"},
	{"rest.handler_patch_us", "us", "lower"},
	{"rest.get_p99_ms", "ms", "lower"},
	// Model store → rest_status (get, deepcopy), scene_fanout (patch,
	// validate).
	{"model.store_get_ns", "ns", "lower"},
	{"model.doc_deepcopy_ns", "ns", "lower"},
	{"model.store_patch_ns", "ns", "lower"},
	{"model.store_patch_w100_ns", "ns", "lower"},
	{"model.schema_validate_ns", "ns", "lower"},
	// Testbed verbs, digi reconciler, trace log → scene_fanout; run_stop
	// and attach_detach → setup_s on rest_status.
	{"core.edit_to_watch_us", "us", "lower"},
	{"digi.scene_sim_per_child_us", "us", "lower"},
	{"trace.append_ns", "ns", "lower"},
	{"trace.log_records", "count", "lower"},
	{"core.run_stop_us", "us", "lower"},
	{"core.attach_detach_us", "us", "lower"},
	{"core.commit_us", "us", "lower"},
	{"core.push_pull_us", "us", "lower"},
	// Swarm plane → timewarp_fleet only.
	{"swarm.pool_publish_local_ns", "ns", "lower"},
	{"swarm.pool_publish_4shard_ns", "ns", "lower"},
	{"swarm.generator_fire_ns", "ns", "lower"},
	{"swarm.sparse_fleet_msgs_per_s", "1/s", "higher"},
	{"swarm.bridge_forwards", "count", "lower"},
	{"swarm.lost", "count", "lower"},
	{"swarm.shed", "count", "lower"},
	// Virtual clock and profile sampler → timewarp_fleet.
	{"clock.virtual_step_ns", "ns", "lower"},
	{"clock.virtual_afterfunc_ns", "ns", "lower"},
	{"profile.next_fire_ns", "ns", "lower"},
	{"profile.compile_1000_ms", "ms", "lower"},
	{"profile.digest_msgs_per_s", "1/s", "higher"},
	// Observability → every workload inside a Testbed.
	{"obs.span_ns", "ns", "lower"},
	{"obs.counter_inc_ns", "ns", "lower"},
	{"obs.histogram_observe_ns", "ns", "lower"},
	{"obs.snapshot_ms", "ms", "lower"},
	// Reported, tied to no timed workload yet.
	{"replay.day_record_ms", "ms", "lower"},
	{"replay.records_per_s", "1/s", "higher"},
	{"yamlite.decode_doc_us", "us", "lower"},
	{"yamlite.encode_doc_us", "us", "lower"},
	// The traced run as a whole: the median the untraced run gates,
	// then what this host is too noisy to gate — the tail, the rate
	// (work over elapsed time) and, as the stall-free view of garbage
	// collector load, the allocation per unit of work.
	{"run.latency_p50_ms", "ms", "lower"},
	{"run.latency_tail_ms", "ms", "lower"},
	{"run.tail_quantile", "ratio", "higher"},
	{"run.achieved_per_s", "1/s", "higher"},
	{"run.allocs_per_unit", "count", "lower"},
	{"run.alloc_kb_per_unit", "KB", "lower"},
	// The harness's own cost, to discount the numbers above.
	{"harness.timer_overhead_ns", "ns", "lower"},
	{"harness.trace_overhead_pct", "%", "lower"},
	{"harness.span_self_sum_pct", "%", "lower"},
	// Spans of the traced run (median self time per operation).
	{"wire.ingress_us", "us", "lower"},
	{"wire.route_fanout_us", "us", "lower"},
	{"wire.egress_us", "us", "lower"},
	{"wire.ack_us", "us", "lower"},
	{"scene.rest_patch_us", "us", "lower"},
	{"scene.room_commit_us", "us", "lower"},
	{"scene.child_commit_first_us", "us", "lower"},
	{"scene.child_commit_rest_us", "us", "lower"},
	{"scene.status_tail_us", "us", "lower"},
	{"scene.status_first_us", "us", "lower"},
	{"rest.traced_client_self_us", "us", "lower"},
	{"rest.traced_handler_us", "us", "lower"},
	{"fleet.swarm_start_us", "us", "lower"},
	{"fleet.swarm_run_us", "us", "lower"},
	{"fleet.swarm_finish_us", "us", "lower"},
}

// spanMetrics maps a layer metric to the span it reads: the span's
// median self time, or — where a nested span would empty it — its
// median duration.
var spanMetrics = []struct {
	metric, span string
	duration     bool
}{
	{"wire.ingress_us", "wire.ingress", false},
	{"wire.route_fanout_us", "wire.route_fanout", false},
	{"wire.egress_us", "wire.egress", false},
	{"wire.ack_us", "wire.ack", false},
	{"scene.rest_patch_us", "rest.patch", false},
	{"scene.room_commit_us", "scene.room_commit", true},
	{"scene.child_commit_first_us", "scene.child_commit_first", false},
	{"scene.child_commit_rest_us", "scene.child_commit_rest", false},
	{"scene.status_tail_us", "scene.status_tail", false},
	{"rest.traced_client_self_us", "rest.client_status", false},
	{"rest.traced_handler_us", "rest.handler_status", false},
	{"fleet.swarm_start_us", "swarm.start", false},
	{"fleet.swarm_run_us", "swarm.run", false},
	{"fleet.swarm_finish_us", "swarm.finish", false},
}

// layerMetrics files what the traced run itself measured: the
// workload's counters, the span summaries and the tracing overhead.
func layerMetrics(m map[string]metric, w workload, tr *tracer, rf *resultFile) {
	w.layers(m)
	durUs, selfUs, sumPct := tr.summary()
	for _, sm := range spanMetrics {
		from := selfUs
		if sm.duration {
			from = durUs
		}
		if v, ok := from[sm.span]; ok {
			m[sm.metric] = metric{v, "us"}
		}
	}
	m["harness.span_self_sum_pct"] = metric{sumPct, "%"}
	m["run.latency_p50_ms"] = metric{rf.Run.P50Ms, "ms"}
	m["run.latency_tail_ms"] = metric{rf.Run.TailMs, "ms"}
	m["run.tail_quantile"] = metric{rf.Run.TailQ, "ratio"}
	m["run.achieved_per_s"] = metric{rf.Run.AchievedPerSec, "1/s"}
	if base := rf.Untraced.P50Ms; base > 0 {
		m["harness.trace_overhead_pct"] = metric{100 * (rf.Run.P50Ms - base) / base, "%"}
	}
	if first, rest := durUs["scene.child_commit_first"], durUs["scene.child_commit_rest"]; first+rest > 0 {
		m["digi.scene_sim_per_child_us"] = metric{(first + rest) / sceneMocks, "us"}
	}
	if sw, ok := w.(*sceneWorkload); ok {
		m["scene.status_first_us"] = metric{median(sw.firstStatusUs), "us"}
	}
	if _, ok := w.(*restWorkload); ok && rf.Run.TailQ == 0.99 {
		m["rest.get_p99_ms"] = metric{rf.Run.TailMs, "ms"}
	}
}

// fillLayerZeros gives every declared metric the run did not touch a
// zero, so a traced run always prints the whole list.
func fillLayerZeros(m map[string]metric) {
	for _, lm := range layerList {
		if _, ok := m[lm.name]; !ok {
			m[lm.name] = metric{0, lm.unit}
		}
	}
}
