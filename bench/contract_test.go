package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json and the harness must name the same workloads and the
// same per-layer metrics, within the limits the benchmark contract
// sets.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	check := func(n, u, better string) {
		t.Helper()
		if !name.MatchString(n) || used[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		used[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
		if better != "" && better != "lower" && better != "higher" {
			t.Errorf("%s: better = %q", n, better)
		}
	}

	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		check(w.Name, "", "")
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}

	want := map[string]bool{"setup_s": true, "heap_mb": true, "latency_p50_ms": true}
	for _, e := range bj.EndToEnd {
		check(e.Name, e.Unit, e.Better)
		if !want[e.Name] {
			t.Errorf("end-to-end metric %q is not one the harness prints", e.Name)
		}
		delete(want, e.Name)
		// A metric that cannot agree within 15 % gets a longer span
		// or is demoted to a per-layer metric, never a wider bound.
		if e.Bound <= 0 || e.Bound > 0.15 {
			t.Errorf("%s: bound %v outside (0, 0.15]", e.Name, e.Bound)
		}
	}
	for n := range want {
		t.Errorf("the harness prints %q but BENCHMARK.json does not list it", n)
	}

	if len(bj.PerLayer) != len(layerList) || len(layerList) > 128 {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d (limit 128)", len(bj.PerLayer), len(layerList))
	}
	for i, p := range bj.PerLayer {
		check(p.Name, p.Unit, p.Better)
		if lm := layerList[i]; p.Name != lm.name || p.Unit != lm.unit || p.Better != lm.better {
			t.Errorf("per-layer metric %d is %+v in BENCHMARK.json, %+v in the harness", i, p, lm)
		}
	}
	for _, sm := range spanMetrics {
		if !used[sm.metric] {
			t.Errorf("span metric %q is not a declared per-layer metric", sm.metric)
		}
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 || len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", bj.RunSeconds, bj.Paths)
	}
}
