package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ctl"
)

func TestParseScalar(t *testing.T) {
	cases := []struct {
		in   string
		want any
	}{
		{"true", true},
		{"false", false},
		{"null", nil},
		{"42", int64(42)},
		{"-3", int64(-3)},
		{"0.5", 0.5},
		{"on", "on"},
		{"room-1", "room-1"},
	}
	for _, c := range cases {
		if got := parseScalar(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseScalar(%q) = %#v, want %#v", c.in, got, c.want)
		}
	}
}

func TestParseKVs(t *testing.T) {
	got, err := parseKVs([]string{"managed=false", "interval_ms=250", "trigger_prob=0.9"})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]any{"managed": false, "interval_ms": int64(250), "trigger_prob": 0.9}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %#v", got)
	}
	if _, err := parseKVs([]string{"novalue"}); err == nil {
		t.Error("malformed kv accepted")
	}
	if m, err := parseKVs(nil); err != nil || m != nil {
		t.Errorf("empty kvs: %v %v", m, err)
	}
}

func TestSetNested(t *testing.T) {
	patch := map[string]any{}
	setNested(patch, "power.intent", "on")
	setNested(patch, "power.extra", int64(1))
	setNested(patch, "top", true)
	power, ok := patch["power"].(map[string]any)
	if !ok || power["intent"] != "on" || power["extra"] != int64(1) || patch["top"] != true {
		t.Errorf("patch = %#v", patch)
	}
}

// startDaemon builds an in-process dboxd-equivalent for CLI dispatch
// tests.
func startDaemon(t *testing.T) *ctl.Client {
	t.Helper()
	tb, err := ctl.NewTestbed(core.Options{
		LocalRepoDir:  filepath.Join(t.TempDir(), "local"),
		RemoteRepoDir: filepath.Join(t.TempDir(), "remote"),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Stop)
	srv := &ctl.Server{TB: tb}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return &ctl.Client{Base: "http://" + srv.Addr()}
}

func TestDispatchTable1Workflow(t *testing.T) {
	cli := startDaemon(t)
	steps := [][]string{
		{"run", "Occupancy", "O1", "managed=false"},
		{"run", "Lamp", "L1"},
		{"run", "Room", "R1", "managed=false"},
		{"attach", "O1", "R1"},
		{"attach", "L1", "R1"},
		{"edit", "R1", "human_presence=true"},
		{"check", "R1"},
		{"ls"},
		{"status"},
		{"watch", "L1", "1"},
		{"commit", "R1"},
		{"commit", "-k", "Lamp"},
		{"vet", "R1"},
		{"vet", "-json", "R1"},
		{"vet", "--all"},
		{"push", "R1"},
		{"pull", "R1"},
		{"trace", "push", "r1-trace"},
		{"replay", "r1-trace", "0"},
		{"attach", "-d", "O1", "R1"},
		{"stop", "O1"},
	}
	for _, step := range steps {
		if step[0] == "watch" {
			// watch blocks until an update arrives and there is no
			// connect handshake, so a single delayed edit can be
			// missed; keep editing until the stream completes.
			stop := make(chan struct{})
			go func() {
				level := 0.42
				for {
					select {
					case <-stop:
						return
					case <-time.After(20 * time.Millisecond):
						cli.Edit("L1", map[string]any{"intensity": map[string]any{"intent": level}})
						level += 0.01
					}
				}
			}()
			err := dispatch(cli, step)
			close(stop)
			if err != nil {
				t.Fatalf("dbox %v: %v", step, err)
			}
			continue
		}
		if err := dispatch(cli, step); err != nil {
			t.Fatalf("dbox %v: %v", step, err)
		}
	}
}

func TestDispatchTraceSave(t *testing.T) {
	cli := startDaemon(t)
	if err := dispatch(cli, []string{"run", "Occupancy", "O1"}); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "trace.zip")
	if err := dispatch(cli, []string{"trace", "save", out}); err != nil {
		t.Fatal(err)
	}
}

func TestDispatchErrors(t *testing.T) {
	cli := startDaemon(t)
	bad := [][]string{
		{"run"},                      // missing args
		{"run", "Bogus", "X"},        // unknown type
		{"stop"},                     // missing args
		{"stop", "ghost"},            // missing digi
		{"check"},                    // missing args
		{"check", "ghost"},           // missing digi
		{"attach", "only-one"},       // missing args
		{"edit", "X"},                // missing patch
		{"edit", "X", "noequals"},    // malformed patch
		{"commit"},                   // missing args
		{"recreate"},                 // missing args
		{"replay", "x", "fast"},      // bad speed
		{"watch", "ghost", "nan"},    // bad max
		{"trace", "bogus"},           // bad subcommand
		{"vet"},                      // neither --all nor a target
		{"vet", "--all", "extra"},    // both --all and a target
		{"vet", "-bogus", "x"},       // unknown flag
		{"vet", "no-such-setup"},     // not a file, not committed
		{"swarm", "-qos", "2"},       // QoS outside {0,1}
		{"swarm", "-qos", "256"},     // would wrap to QoS 0
		{"definitely-not-a-command"}, // unknown
		// The open preset over 100 msg/s/device.
		{"swarm", "-profile", "open", "-devices", "10", "-rate", "5000"},
	}
	for _, args := range bad {
		if err := dispatch(cli, args); err == nil {
			t.Errorf("dbox %v succeeded, want error", args)
		}
	}
}

func TestVetLocalFile(t *testing.T) {
	cli := startDaemon(t)
	dir := t.TempDir()

	bad := filepath.Join(dir, "bad.yaml")
	if err := os.WriteFile(bad, []byte(`setup: bad
---
meta:
  type: Room
  version: v1
  name: room
  attach: [ghost]
`), 0o644); err != nil {
		t.Fatal(err)
	}
	// Vetting never contacts the daemon for local files, and a setup
	// with error diagnostics makes the command fail.
	if err := dispatch(cli, []string{"vet", bad}); err == nil {
		t.Error("vet of broken local setup succeeded")
	}

	good := filepath.Join(dir, "good.yaml")
	if err := os.WriteFile(good, []byte("setup: good\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := dispatch(cli, []string{"vet", good}); err != nil {
		t.Errorf("vet of clean local setup failed: %v", err)
	}
	if err := dispatch(cli, []string{"vet", "-json", good}); err != nil {
		t.Errorf("vet -json of clean local setup failed: %v", err)
	}
}
