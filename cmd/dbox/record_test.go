package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/replay"
	"repro/internal/trace"
)

const testScenario = `scenario: cli-test
duration_ms: 300
digis:
  - type: Occupancy
    name: O1
    config: {interval_ms: 50, trigger_prob: 1.0, seed: 5}
  - type: Lamp
    name: L1
  - type: Room
    name: MeetingRoom
    config: {managed: false}
    attach: [O1, L1]
script:
  - at_ms: 100
    edit: MeetingRoom
    patch: {human_presence: true}
`

func writeScenario(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scenario.yaml")
	if err := os.WriteFile(path, []byte(testScenario), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRecordThenReplayVerifyLocal(t *testing.T) {
	scPath := writeScenario(t)
	out := filepath.Join(t.TempDir(), "run.zip")
	if err := dispatch(nil, []string{"record", "-o", out, scPath}); err != nil {
		t.Fatalf("dbox record: %v", err)
	}
	// Two consecutive verifying replays must both match the recording.
	if err := dispatch(nil, []string{"replay", "-verify", out}); err != nil {
		t.Fatalf("dbox replay -verify (1st): %v", err)
	}
	if err := dispatch(nil, []string{"replay", "-verify", out}); err != nil {
		t.Fatalf("dbox replay -verify (2nd): %v", err)
	}
}

func TestRecordThenReplayVerifyRemote(t *testing.T) {
	cli := startDaemon(t)
	scPath := writeScenario(t)
	out := filepath.Join(t.TempDir(), "run.zip")
	if err := dispatch(cli, []string{"record", "-remote", "-o", out, scPath}); err != nil {
		t.Fatalf("dbox record -remote: %v", err)
	}
	if err := dispatch(cli, []string{"replay", "-verify", "-remote", out}); err != nil {
		t.Fatalf("dbox replay -verify -remote: %v", err)
	}
	// The daemon's engine and the local one must agree byte-for-byte:
	// a remote recording verifies locally too.
	if err := dispatch(nil, []string{"replay", "-verify", out}); err != nil {
		t.Fatalf("local verify of remote recording: %v", err)
	}
}

func TestReplayVerifyDetectsTamperedArchive(t *testing.T) {
	scPath := writeScenario(t)
	data, err := os.ReadFile(scPath)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := replay.ParseScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := ctl.NewTestbed(core.Options{BrokerAddr: "none", RESTAddr: "none"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Stop)
	res, err := tb.Record(sc)
	if err != nil {
		t.Fatal(err)
	}
	// A consistent archive of a run that is not the scenario's: the
	// last record is gone, and the stored digest covers what is left.
	if data, err = sc.Marshal(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteArchive(&buf, clock.Epoch, res.Records[:len(res.Records)-1], data); err != nil {
		t.Fatal(err)
	}
	tampered := filepath.Join(t.TempDir(), "tampered.zip")
	if err := os.WriteFile(tampered, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := dispatch(nil, []string{"replay", "-verify", tampered}); err == nil {
		t.Fatal("replay -verify accepted a tampered archive")
	}
	// Without -verify the replay succeeds: it just re-executes.
	if err := dispatch(nil, []string{"replay", tampered}); err != nil {
		t.Fatalf("non-verifying replay: %v", err)
	}
}

func TestRecordErrors(t *testing.T) {
	for _, args := range [][]string{
		{"record"},                       // missing target
		{"record", "-o"},                 // -o without a path
		{"record", "a.yaml", "b.yaml"},   // two targets
		{"record", "/no/such/file.yaml"}, // unreadable scenario
		{"replay", "-verify"},            // archive form without a target
		{"replay", "-verify", "/no/such/archive.zip"},
	} {
		if err := dispatch(nil, args); err == nil {
			t.Errorf("dbox %v succeeded, want error", args)
		}
	}
}
