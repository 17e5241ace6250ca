// Package replaytest is the golden-trace conformance framework: one
// call turns an example scene into a byte-exact regression test.
//
//	func TestGolden(t *testing.T) {
//		replaytest.Golden(t, registry, scenario, "testdata/quickstart.trace.jsonl")
//	}
//
// The scenario is executed twice on the deterministic engine (a
// nondeterministic scene fails immediately), then the normalized trace
// is compared byte-for-byte against the checked-in golden file.
// Running the test with -update rewrites the fixture:
//
//	go test ./examples/quickstart -run TestGolden -update
//
// The flag lives here — not in package replay — so it is only
// registered in test binaries that opt into golden testing.
package replaytest

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/digi"
	"repro/internal/replay"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden trace fixtures")

// Golden records the scenario, checks determinism across two runs,
// and compares the normalized trace against the golden fixture at
// path (JSONL, one record per line). With -update the fixture is
// rewritten instead. It returns the run result for extra assertions.
func Golden(t *testing.T, registry *digi.Registry, sc *replay.Scenario, path string) *replay.Result {
	t.Helper()
	a, err := replay.Record(registry, sc)
	if err != nil {
		t.Fatalf("replaytest: record %s: %v", sc.Name, err)
	}
	b, err := replay.Record(registry, sc)
	if err != nil {
		t.Fatalf("replaytest: re-record %s: %v", sc.Name, err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("replaytest: scenario %s is nondeterministic:\n  run 1 %s\n  run 2 %s",
			sc.Name, a.Digest, b.Digest)
	}

	// Speed invariance: the same scenario paced against the wall
	// clock must produce the same digest as the unpaced run above, so
	// one canonical fixture covers every execution mode (-update
	// regenerates exactly that one file). Paced speeds that would
	// take unreasonable wall time for this scenario are skipped —
	// long-horizon scenes prove equivalence at high finite factors.
	for _, speed := range []float64{100, 1} {
		if wallCost := time.Duration(float64(sc.Duration) / speed); wallCost > 5*time.Second {
			t.Logf("replaytest: %s: skipping speed %s (%v of wall time)",
				sc.Name, clock.FormatSpeed(speed), wallCost)
			continue
		}
		p, err := replay.RecordExec(registry, sc, replay.ExecOptions{Speed: speed})
		if err != nil {
			t.Fatalf("replaytest: record %s at speed %s: %v", sc.Name, clock.FormatSpeed(speed), err)
		}
		if p.Digest != a.Digest {
			t.Fatalf("replaytest: scenario %s digest is speed-dependent:\n  speed max %s\n  speed %-3s %s",
				sc.Name, a.Digest, clock.FormatSpeed(speed), p.Digest)
		}
	}

	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, a.Records); err != nil {
		t.Fatalf("replaytest: encode: %v", err)
	}
	got := buf.Bytes()

	// The digest survives its own JSON: records read back from the
	// encoded trace hash to the run's digest, which is what a trace
	// archive's reader checks.
	back, err := trace.ReadJSONL(bytes.NewReader(got))
	if err != nil {
		t.Fatalf("replaytest: re-read %s: %v", sc.Name, err)
	}
	if d, err := trace.Digest(trace.Normalize(back)); err != nil || d != a.Digest {
		t.Fatalf("replaytest: %s read back from JSON hashes to %s (%v), the run to %s", sc.Name, d, err, a.Digest)
	}

	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatalf("replaytest: %v", err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("replaytest: %v", err)
		}
		t.Logf("replaytest: wrote %s (%d records, %s)", path, len(a.Records), a.Digest)
		return a
	}

	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("replaytest: %v (run with -update to create the fixture)", err)
	}
	if !bytes.Equal(got, want) {
		line, gotLine, wantLine := firstDiff(got, want)
		t.Fatalf("replaytest: %s diverged from golden %s at record %d:\n  got  %s\n  want %s\n(run with -update to accept the new trace)",
			sc.Name, path, line, gotLine, wantLine)
	}
	return a
}

// GoldenFile is Golden for a scenario stored on disk (the
// scenario.yaml an example ships next to its setup).
func GoldenFile(t *testing.T, registry *digi.Registry, scenarioPath, fixturePath string) *replay.Result {
	t.Helper()
	data, err := os.ReadFile(scenarioPath)
	if err != nil {
		t.Fatalf("replaytest: %v", err)
	}
	sc, err := replay.ParseScenario(data)
	if err != nil {
		t.Fatalf("replaytest: %v", err)
	}
	return Golden(t, registry, sc, fixturePath)
}

// firstDiff locates the first differing line of two JSONL buffers.
func firstDiff(got, want []byte) (line int, g, w string) {
	gl := bytes.Split(got, []byte("\n"))
	wl := bytes.Split(want, []byte("\n"))
	n := len(gl)
	if len(wl) < n {
		n = len(wl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			return i + 1, clip(gl[i]), clip(wl[i])
		}
	}
	if len(gl) > len(wl) {
		return len(wl) + 1, clip(gl[len(wl)]), "<end of golden>"
	}
	return len(gl) + 1, "<end of run>", clip(wl[len(gl)])
}

func clip(b []byte) string {
	const max = 200
	if len(b) > max {
		return string(b[:max]) + "…"
	}
	return string(b)
}
