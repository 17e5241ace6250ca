package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/ctl"
	"repro/internal/profile"
	"repro/internal/swarm"
)

// runStdout runs one dbox invocation and returns what it printed.
func runStdout(t *testing.T, cli *ctl.Client, args []string) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	printed := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		printed <- b
	}()
	stdout := os.Stdout
	os.Stdout = w
	runErr := dispatch(cli, args)
	os.Stdout = stdout
	w.Close()
	out := <-printed
	r.Close()
	return string(out), runErr
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}

// TestVerbsAgreeAcrossTransports runs each testbed verb twice: served
// in process, and with -remote against a daemon. The verb makes the
// same ctl.Client call either way, so digests, record counts, swarm
// accounting and fitted profiles must be identical across the two.
func TestVerbsAgreeAcrossTransports(t *testing.T) {
	daemon := startDaemon(t)
	scPath := writeScenario(t)
	dir := t.TempDir()
	columns := []struct {
		name  string
		cli   *ctl.Client
		flags []string
	}{
		{"in-process", nil, nil},
		{"remote", daemon, []string{"-remote"}},
	}
	file := func(col, name string) string { return filepath.Join(dir, col+"-"+name) }
	rows := []struct {
		verb string
		args func(col string) []string
		// agree extracts what must match across the columns.
		agree func(t *testing.T, col, stdout string) string
	}{
		{"run",
			func(string) []string { return []string{"-speed", "max", scPath} },
			func(_ *testing.T, _, stdout string) string { return firstLine(stdout) }},
		{"record",
			func(col string) []string { return []string{"-o", file(col, "run.zip"), scPath} },
			func(_ *testing.T, _, stdout string) string { return firstLine(stdout) }},
		{"replay",
			func(col string) []string { return []string{"-verify", file(col, "run.zip")} },
			func(_ *testing.T, _, stdout string) string { return firstLine(stdout) }},
		{"swarm",
			func(col string) []string {
				return []string{"-profile", "closed", "-devices", "20", "-period", "100ms",
					"-duration", "1s", "-workers", "2", "-o", file(col, "swarm.json")}
			},
			func(t *testing.T, col, _ string) string {
				data, err := os.ReadFile(file(col, "swarm.json"))
				if err != nil {
					t.Fatal(err)
				}
				var rep swarm.Report
				if err := json.Unmarshal(data, &rep); err != nil {
					t.Fatal(err)
				}
				// The closed schedule is exact: 20 devices x 1s / 100ms.
				if rep.Published != 200 || rep.Lost != 0 {
					t.Errorf("%s swarm: published %d, lost %d; want 200, 0", col, rep.Published, rep.Lost)
				}
				return fmt.Sprintf("published %d delivered %d", rep.Published, rep.Delivered)
			}},
		{"capture",
			func(col string) []string {
				return []string{"-name", "xport", "-seed", "9", "-duration", "2s", "-devices", "8",
					"-period", "500ms", "-speed", "max", "-o", file(col, "fitted.yaml")}
			},
			func(t *testing.T, col, _ string) string {
				data, err := os.ReadFile(file(col, "fitted.yaml"))
				if err != nil {
					t.Fatal(err)
				}
				p, err := profile.Parse(data)
				if err != nil {
					t.Fatal(err)
				}
				if len(p.Populations) != 1 || p.Populations[0].Count != 8 ||
					p.Populations[0].Cadence.Dist != profile.DistFixed ||
					p.Populations[0].Cadence.Mean != 500*time.Millisecond {
					t.Errorf("%s capture: populations %+v, want 8 devices on a fixed 500ms cadence", col, p.Populations)
				}
				return string(data)
			}},
	}
	for _, row := range rows {
		var got []string
		for _, col := range columns {
			args := append(append([]string{row.verb}, col.flags...), row.args(col.name)...)
			stdout, err := runStdout(t, col.cli, args)
			if err != nil {
				t.Fatalf("%s: dbox %v: %v", col.name, args, err)
			}
			got = append(got, row.agree(t, col.name, stdout))
		}
		if got[0] != got[1] {
			t.Errorf("%s: in-process and remote disagree:\n  in-process: %s\n  remote:     %s", row.verb, got[0], got[1])
		}
	}
}

// TestInProcessErrorMapping: an in-process verb surfaces the handler's
// 400 message, not a transport error.
func TestInProcessErrorMapping(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bogus.yaml")
	sc := "scenario: bogus\nduration_ms: 100\ndigis:\n  - type: NoSuchKind\n    name: X1\n"
	if err := os.WriteFile(path, []byte(sc), 0o644); err != nil {
		t.Fatal(err)
	}
	err := dispatch(nil, []string{"record", path})
	if err == nil {
		t.Fatal("record of a scenario with an unknown kind succeeded")
	}
	if !strings.HasPrefix(err.Error(), "dboxd: ") || !strings.Contains(err.Error(), "NoSuchKind") {
		t.Errorf("error = %q, want the handler's message naming NoSuchKind", err)
	}
}
