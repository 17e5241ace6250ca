// Command bench is digibox-go's benchmark: one harness, five
// workloads, every output checked against an oracle. See README.md
// for what each workload and metric is for.
//
//	bash bench/run.sh                       all workloads, untraced then traced
//	bash bench/run.sh --workload wire_pubsub --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh -check [-workload N]  two sets of runs, spread vs bound
//
// A single-workload run prints every metric by name and unit and ends
// with one JSON line {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"time"
)

// buildDir holds everything the benchmark writes; .gitignore names it.
const buildDir = ".bench_build"

// resultsDir is where runs leave their result and span files.
var resultsDir = filepath.Join(buildDir, "results")

// microBenchTime is how long testing.Benchmark times each micro
// benchmark: some fifty of them have to fit in a few seconds of a
// traced run.
const microBenchTime = "50ms"

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// environment is recorded in every result file so two results can be
// judged comparable.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

func currentEnvironment() environment {
	commit := os.Getenv("DIGIBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     commit,
	}
}

// resultFile is what a run leaves under .bench_build/results.
type resultFile struct {
	Workload    string      `json:"workload"`
	Why         string      `json:"why"`
	Seed        int64       `json:"seed"`
	Traced      bool        `json:"traced"`
	Seconds     int         `json:"seconds"`
	WarmupSec   float64     `json:"warmup_seconds"`
	WindowSec   float64     `json:"window_seconds"`
	Env         environment `json:"environment"`
	SetupSec    []float64   `json:"setup_seconds,omitempty"`
	Run         summary     `json:"run"`
	Untraced    *summary    `json:"untraced_baseline,omitempty"`
	OracleError string      `json:"oracle_error,omitempty"`
	Result      result      `json:"result"`
	SpanFile    string      `json:"span_file,omitempty"`
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload ("+workloadNames()+"); empty runs all, untraced then traced")
		seed    = flag.Int64("seed", 1, "drives topic/name order, payload bytes and the device-profile seed")
		seconds = flag.Int("seconds", 10, "measured span in seconds (claims need at least four 2-s windows)")
		trace   = flag.Int("trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
		check   = flag.Bool("check", false, "run every workload (or the one named) ten times, twice, and compare spread and medians with BENCHMARK.json's bounds")
	)
	// The micro phase runs on testing.Benchmark, whose only setting is
	// a flag.
	testing.Init()
	if err := flag.Set("test.benchtime", microBenchTime); err != nil {
		fatalf("%v", err)
	}
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *seconds < 1 {
		fatalf("-seconds must be at least 1")
	}
	spec, ok := findWorkload(*name)
	if *name != "" && !ok {
		fatalf("unknown workload %q (want one of %s)", *name, workloadNames())
	}
	switch {
	case *check:
		os.Exit(runCheck(*name, *seed, *seconds))
	case *name == "":
		os.Exit(runAll(*seed, *seconds))
	}
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	rf, err := runWorkload(spec, *seed, *seconds, *trace != 0)
	if err != nil {
		fatalf("%s: %v", spec.name, err)
	}
	printMetrics(rf.Result.Metrics)
	path := filepath.Join(resultsDir, fmt.Sprintf("%s-seed%d-trace%d.json", spec.name, *seed, *trace))
	if err := writeJSON(path, rf); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("# result file %s\n", path)
	line, err := json.Marshal(rf.Result)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !rf.Result.Correct {
		fmt.Fprintf(os.Stderr, "bench: %s: oracle failed: %s\n", spec.name, rf.OracleError)
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printMetrics lists every metric by name with its unit, sorted.
func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// runWorkload is one benchmark run: set-up (timed, repeated), warm-up,
// the measured span, the oracle, and — traced — the untraced baseline,
// the span log and the micro phase.
func runWorkload(spec workloadSpec, seed int64, seconds int, traced bool) (*resultFile, error) {
	rf := &resultFile{
		Workload:  spec.name,
		Why:       spec.why,
		Seed:      seed,
		Traced:    traced,
		Seconds:   seconds,
		WarmupSec: warmup.Seconds(),
		WindowSec: windowLen.Seconds(),
		Env:       currentEnvironment(),
	}
	var tr *tracer
	cycles := spec.setupCycles
	if traced {
		tr = &tracer{every: spec.traceEvery}
		cycles = 1 // setup_s is an end-to-end metric; the traced run does not report it
	}
	w := spec.build(seed, tr)

	// Set-up, several times over: the median is steadier than one
	// sample, and the last build is the one the run uses.
	for i := 0; i < cycles; i++ {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			w.teardown()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rf.SetupSec = append(rf.SetupSec, time.Since(t0).Seconds())
		if i < cycles-1 {
			w.teardown()
		}
	}
	defer w.teardown() // idempotent: the traced run tears down early
	heapMB := settledHeapMB()

	span := time.Duration(seconds) * time.Second
	if _, err := drive(w, warmup); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	metrics := map[string]metric{}
	if traced {
		// Half as many untraced windows first, so the tracing overhead
		// is measured inside the same process and scene.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		base, err := drive(w, max(span/2/windowLen, 1)*windowLen)
		if err != nil {
			return nil, fmt.Errorf("untraced baseline: %w", err)
		}
		runtime.ReadMemStats(&after)
		b := base.summarize()
		rf.Untraced = &b
		if b.Units > 0 {
			// The whole process's allocation, the scene's background
			// work included, per unit of the loop's work.
			metrics["run.allocs_per_unit"] = metric{float64(after.Mallocs-before.Mallocs) / float64(b.Units), "count"}
			metrics["run.alloc_kb_per_unit"] = metric{float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(b.Units), "KB"}
		}
		tr.start()
	}
	rec, err := drive(w, span)
	if err != nil {
		return nil, err
	}
	if traced {
		tr.stop()
	}
	rf.Run = rec.summarize()
	oracleErr := w.verify()
	if rf.Run.Ops == 0 {
		oracleErr = errors.Join(oracleErr, errors.New("no operation completed"))
	}

	if traced {
		layerMetrics(metrics, w, tr, rf)
		rf.SpanFile = filepath.Join(resultsDir, fmt.Sprintf("%s-seed%d.spans.jsonl", spec.name, seed))
		if err := tr.write(rf.SpanFile); err != nil {
			return nil, err
		}
		// The micro phase measures layers in isolation: the workload's
		// scene, and the garbage it leaves, go first.
		w.teardown()
		runtime.GC()
		oracleErr = errors.Join(oracleErr, microPhase(metrics, seed))
		fillLayerZeros(metrics)
	} else {
		metrics["setup_s"] = metric{median(rf.SetupSec), "s"}
		metrics["heap_mb"] = metric{heapMB, "MB"}
		metrics["latency_p50_ms"] = metric{rf.Run.P50Ms, "ms"}
	}
	if oracleErr != nil {
		rf.OracleError = oracleErr.Error()
	}
	rf.Result = result{
		Correct:   oracleErr == nil,
		Attempted: rf.Run.Attempted,
		Failed:    rf.Run.Failed,
		Metrics:   metrics,
	}
	return rf, nil
}

// maxFailed is how many failed operations a run tolerates before it
// gives up: each may have waited out opTimeout, and a run has to end
// well inside the driver's three minutes.
const maxFailed = 10

// drive runs the workload's closed loop for span: one operation
// outstanding, the next issued when the previous completes.
func drive(w workload, span time.Duration) (*recorder, error) {
	start := time.Now()
	rec := newRecorder(start, span)
	for {
		t0 := time.Now()
		if t0.Sub(start) >= span {
			return rec, nil
		}
		lat, units, err := w.op()
		rec.add(t0, time.Now(), lat, units, err)
		if err != nil && rec.failed > maxFailed {
			return nil, fmt.Errorf("giving up after %d failed operations, last: %w", rec.failed, err)
		}
	}
}

// settledHeapMB is the heap in use once garbage from set-up is
// collected: the resident cost of the scene the run is about to use.
func settledHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}
