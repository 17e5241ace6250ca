package ctl

import (
	"strings"
	"testing"
	"time"

	"repro/internal/replay"
	"repro/internal/trace"
)

func recordScenario() *replay.Scenario {
	return &replay.Scenario{
		Name:     "ctl-record",
		Duration: 300 * time.Millisecond,
		Digis: []replay.Digi{
			{Type: "Occupancy", Name: "O1",
				Config: map[string]any{"interval_ms": int64(50), "trigger_prob": 1.0, "seed": int64(3)}},
			{Type: "Lamp", Name: "L1"},
			{Type: "Room", Name: "MeetingRoom",
				Config: map[string]any{"managed": false},
				Attach: []string{"O1", "L1"}},
		},
	}
}

func TestRecordOverHTTP(t *testing.T) {
	_, cli := startServer(t, "")
	sc := recordScenario()
	resp, err := cli.Record(sc, true)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Scenario != "ctl-record" || resp.Records == 0 {
		t.Fatalf("resp = %+v", resp)
	}
	if !strings.HasPrefix(resp.Digest, "sha256:") {
		t.Fatalf("digest = %q", resp.Digest)
	}
	if len(resp.Archive) == 0 {
		t.Fatal("archive requested but empty")
	}
	// The returned archive must parse and carry the same digest.
	ar, err := trace.ParseArchiveBytes(resp.Archive)
	if err != nil {
		t.Fatal(err)
	}
	if ar.Digest != resp.Digest {
		t.Fatalf("archive digest %s != response digest %s", ar.Digest, resp.Digest)
	}

	// Without the archive flag, no payload rides along.
	lean, err := cli.Record(sc, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(lean.Archive) != 0 {
		t.Fatal("archive returned without being requested")
	}
	if lean.Digest != resp.Digest {
		t.Fatalf("recording is nondeterministic across requests: %s vs %s", lean.Digest, resp.Digest)
	}
}

func TestReplayScenarioOverHTTP(t *testing.T) {
	_, cli := startServer(t, "")
	sc := recordScenario()
	rec, err := cli.Record(sc, false)
	if err != nil {
		t.Fatal(err)
	}

	rep, err := cli.ReplayScenario(sc, rec.Digest, true)
	if err != nil {
		t.Fatalf("verify replay failed: %v", err)
	}
	if rep.Digest != rec.Digest {
		t.Fatalf("replay digest %s != recorded %s", rep.Digest, rec.Digest)
	}

	// A wrong expected digest must fail the verify form.
	if _, err := cli.ReplayScenario(sc, "sha256:"+strings.Repeat("0", 64), true); err == nil {
		t.Fatal("verify accepted a wrong digest")
	}
	// Verify without a digest is an error, not a silent pass.
	if _, err := cli.ReplayScenario(sc, "", true); err == nil {
		t.Fatal("verify accepted an empty digest")
	}
	// Non-verify replay just re-executes and reports.
	free, err := cli.ReplayScenario(sc, "", false)
	if err != nil {
		t.Fatal(err)
	}
	if free.Digest != rec.Digest {
		t.Fatalf("free replay diverged: %s vs %s", free.Digest, rec.Digest)
	}
}

func TestRecordRejectsBadScenario(t *testing.T) {
	_, cli := startServer(t, "")
	// Unknown kind fails validation inside the engine.
	bad := &replay.Scenario{
		Name:     "bad",
		Duration: 100 * time.Millisecond,
		Digis:    []replay.Digi{{Type: "NoSuchKind", Name: "X"}},
	}
	if _, err := cli.Record(bad, false); err == nil {
		t.Fatal("record accepted an unknown kind")
	}
	// A scenario without digis fails Validate.
	if _, err := cli.Record(&replay.Scenario{Name: "empty", Duration: time.Second}, false); err == nil {
		t.Fatal("record accepted an empty scenario")
	}
}
