package main

import (
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/device"
	"repro/internal/replay"
	"repro/internal/scene"
)

// TestTopRendersLatency drives a publishing ensemble and checks the
// top table carries real per-digi rows with e2e latency quantiles.
func TestTopRendersLatency(t *testing.T) {
	tb, err := core.New(core.Options{
		LocalRepoDir: filepath.Join(t.TempDir(), "local"),
		Observer:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Few messages flow in this test; trace all of them rather than the
	// production 1-in-8 sample.
	tb.Tracer.SetSampleInterval(1)
	device.RegisterAll(tb.Registry)
	scene.RegisterAll(tb.Registry)
	if err := tb.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Stop)
	srv := &ctl.Server{TB: tb}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli := &ctl.Client{Base: "http://" + srv.Addr()}

	if err := cli.Run("Occupancy", "O1",
		map[string]any{"interval_ms": int64(50), "trigger_prob": 1.0}); err != nil {
		t.Fatal(err)
	}

	// Wait until spans have closed, then render two frames.
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap, err := cli.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		if fs := snap.Family("digibox_e2e_latency_seconds"); fs != nil && len(fs.Metrics) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no e2e spans completed")
		}
		time.Sleep(20 * time.Millisecond)
	}
	var out strings.Builder
	if err := runTop(cli, nil, 2, 100*time.Millisecond, &out, false); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "DIGI") || !strings.Contains(text, "O1") {
		t.Fatalf("table missing digi row:\n%s", text)
	}
	// No scenario has run here, so the timewarp lane must be absent.
	if strings.Contains(text, "timewarp —") {
		t.Fatalf("timewarp lane rendered without a scenario run:\n%s", text)
	}
	// The O1 row must carry a real latency, not the "-" placeholder.
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "O1") {
			continue
		}
		if !strings.Contains(line, "µs") && !strings.Contains(line, "ms") &&
			!strings.Contains(line, "s") {
			t.Fatalf("O1 row has no latency: %q", line)
		}
		fields := strings.Fields(line)
		if len(fields) < 7 {
			t.Fatalf("O1 row malformed: %q", line)
		}
		if fields[3] == "-" || fields[4] == "-" {
			t.Fatalf("O1 row has placeholder quantiles: %q", line)
		}
	}

	// Dispatch plumbing: flag parsing and error cases.
	if err := dispatch(cli, []string{"top", "-n", "1"}); err != nil {
		t.Fatalf("dbox top -n 1: %v", err)
	}
	if err := dispatch(cli, []string{"metrics"}); err != nil {
		t.Fatalf("dbox metrics: %v", err)
	}
	for _, bad := range [][]string{
		{"top", "-n"},
		{"top", "-n", "zero"},
		{"top", "-n", "0"},
		{"top", "-i", "-1"},
		{"top", "-watch"},
		{"top", "-watch", "0"},
		{"top", "-watch", "1", "-n", "2"},
		{"top", "extra"},
	} {
		if err := dispatch(cli, bad); err == nil {
			t.Errorf("dbox %v succeeded, want error", bad)
		}
	}
}

// TestTopWatchPacesOnInjectedClock proves -watch frames advance on
// the injected clock, not the wall clock: with a virtual clock, frame
// N+1 renders only when the test steps time past the interval.
func TestTopWatchPacesOnInjectedClock(t *testing.T) {
	tb, err := core.New(core.Options{
		LocalRepoDir: filepath.Join(t.TempDir(), "local"),
	})
	if err != nil {
		t.Fatal(err)
	}
	device.RegisterAll(tb.Registry)
	scene.RegisterAll(tb.Registry)
	if err := tb.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Stop)
	srv := &ctl.Server{TB: tb}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli := &ctl.Client{Base: "http://" + srv.Addr()}

	clk := clock.NewVirtual()
	var mu sync.Mutex
	var out strings.Builder
	frames := func() int {
		mu.Lock()
		defer mu.Unlock()
		return strings.Count(out.String(), "dbox top —")
	}
	done := make(chan error, 1)
	go func() {
		done <- runTop(cli, clk, 3, time.Hour, lockedWriter{&mu, &out}, false)
	}()

	// Frame 1 renders immediately; frames 2 and 3 are gated behind an
	// hour of virtual time each. Wall-clock waiting must never release
	// them — only Step does.
	waitFrames := func(want int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for frames() != want {
			if time.Now().After(deadline) {
				t.Fatalf("frames = %d, want %d", frames(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Step retries until runTop has armed its sleep timer — Step is a
	// no-op (and advances nothing) before then.
	step := func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !clk.Step(clk.Now().Add(time.Hour)) {
			if time.Now().After(deadline) {
				t.Fatal("runTop never armed its frame timer")
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitFrames(1)
	step()
	waitFrames(2)
	step()
	waitFrames(3)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestTopTimewarpLane: once a time-compressed scenario has run, the
// top header grows a timewarp lane with scenario time, wall time, and
// the achieved warp factor from /ctl/status.
func TestTopTimewarpLane(t *testing.T) {
	tb, err := core.New(core.Options{
		LocalRepoDir: filepath.Join(t.TempDir(), "local"),
	})
	if err != nil {
		t.Fatal(err)
	}
	device.RegisterAll(tb.Registry)
	scene.RegisterAll(tb.Registry)
	if err := tb.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Stop)
	srv := &ctl.Server{TB: tb}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli := &ctl.Client{Base: "http://" + srv.Addr()}

	sc := &replay.Scenario{
		Name:     "warped",
		Duration: 30 * time.Second,
		Digis: []replay.Digi{
			{Type: "Occupancy", Name: "O1", Config: map[string]any{"interval_ms": int64(100), "trigger_prob": 1.0}},
		},
	}
	if _, err := cli.RunScenario(sc, "max"); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := runTop(cli, nil, 1, time.Second, &out, false); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "timewarp — scenario 30s / wall ") {
		t.Fatalf("timewarp lane missing or malformed:\n%s", text)
	}
	if !strings.Contains(text, "(warped @ speed max, done)") {
		t.Fatalf("timewarp lane missing run identity:\n%s", text)
	}
	if !strings.Contains(text, "warp ") || !strings.Contains(text, "x ") {
		t.Fatalf("timewarp lane missing warp factor:\n%s", text)
	}
}

// lockedWriter serialises the render goroutine's writes with the
// test's reads.
type lockedWriter struct {
	mu *sync.Mutex
	w  *strings.Builder
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}
