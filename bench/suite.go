package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// child runs one workload in a fresh process — the way the benchmark's
// driver does, so heap and set-up numbers are not coloured by the run
// before — and returns its result line. The child's report is passed
// through when echo is set.
func child(workload string, seed int64, seconds, trace int, echo bool) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(exe,
		"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if echo {
		os.Stdout.Write(bytes.Join(lines[:len(lines)-1], []byte("\n")))
		fmt.Println()
	}
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return result{}, fmt.Errorf("%s: last line is not a result: %w", workload, err)
	}
	return r, nil
}

// runAll is the one command that prints everything: every workload
// untraced (end-to-end metrics), then traced (per-layer metrics).
func runAll(seed int64, seconds int) int {
	status := 0
	for _, trace := range []int{0, 1} {
		for _, spec := range workloads {
			fmt.Printf("== %s  seed %d  %d s  trace %d\n", spec.name, seed, seconds, trace)
			r, err := child(spec.name, seed, seconds, trace, true)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				status = 1
				continue
			}
			fmt.Printf("%-36s %16d count\n%-36s %16d count\n", "ops_attempted", r.Attempted, "ops_failed", r.Failed)
			if !r.Correct || r.Failed > 0 {
				status = 1
			}
		}
	}
	return status
}

// benchmarkJSON is the part of BENCHMARK.json -check needs.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// checkRuns is how many runs of a workload make one set under -check:
// the count the benchmark's driver and the choosing-metrics guide use.
const checkRuns = 10

// runCheck is the benchmark's own acceptance test: two sets of runs
// of the same binary, each workload (or only the one named) checkRuns
// times per set with a different seed every time. For every end-to-end metric it prints
// each set's interquartile spread (as a share of the median) and how
// much worse the second set's median is than the first's, against the
// metric's bound; any disagreement, failed operation or failed oracle
// makes the exit status non-zero.
func runCheck(only string, seed int64, seconds int) int {
	data, err := repoFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		fmt.Fprintf(os.Stderr, "bench: BENCHMARK.json: %v\n", err)
		return 2
	}
	status := 0
	for _, spec := range workloads {
		if only != "" && spec.name != only {
			continue
		}
		var sets [2]map[string][]float64
		for set := range sets {
			sets[set] = map[string][]float64{}
			for i := 0; i < checkRuns; i++ {
				r, err := child(spec.name, seed+int64(set*checkRuns+i), seconds, 0, false)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %v\n", err)
					return 1
				}
				if !r.Correct || r.Failed > 0 {
					fmt.Printf("%s: set %d run %d: correct=%v failed=%d of %d\n", spec.name, set+1, i+1, r.Correct, r.Failed, r.Attempted)
					status = 1
				}
				for name, m := range r.Metrics {
					sets[set][name] = append(sets[set][name], m.Value)
				}
			}
		}
		fmt.Printf("== %s (%d runs per set)\n", spec.name, checkRuns)
		fmt.Printf("%-20s %12s %12s %8s %8s %8s %6s  %s\n", "metric", "median 1", "median 2", "spread1", "spread2", "worse", "bound", "verdict")
		for _, e := range bj.EndToEnd {
			a, b := sets[0][e.Name], sets[1][e.Name]
			m1, m2 := median(a), median(b)
			worse := (m2 - m1) / m1
			if e.Better == "higher" {
				worse = -worse
			}
			s1, s2 := iqrSpread(a), iqrSpread(b)
			verdict := "ok"
			// The contract exempts setup_s from the spread test but not
			// from the median test.
			if worse > e.Bound || (e.Name != "setup_s" && (s1 > e.Bound || s2 > e.Bound)) {
				verdict = "DISAGREE"
				status = 1
			}
			fmt.Printf("%-20s %12.6g %12.6g %7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
				e.Name, m1, m2, 100*s1, 100*s2, 100*worse, 100*e.Bound, verdict)
		}
	}
	return status
}
