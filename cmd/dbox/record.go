package main

// dbox record / dbox replay (archive form): the CLI surface of the
// deterministic record/replay harness. Both serve the control API in
// process on a private testbed by default — no daemon needed — and
// -remote only sends the same request to a running daemon instead.

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/replay"
	"repro/internal/trace"
)

// recordCmd implements "dbox record [-o OUT.zip] [-remote] SCENARIO.yaml":
// execute the scenario on the deterministic engine and print the
// chained trace digest; -o additionally saves the replay archive.
func recordCmd(cli *ctl.Client, rest []string) error {
	usageErr := fmt.Errorf("usage: dbox record [-o OUT.zip] [-remote] SCENARIO.yaml")
	out, remote, target := "", false, ""
	for i := 0; i < len(rest); i++ {
		switch a := rest[i]; a {
		case "-o", "--out":
			i++
			if i >= len(rest) {
				return usageErr
			}
			out = rest[i]
		case "-remote", "--remote":
			remote = true
		default:
			if strings.HasPrefix(a, "-") || target != "" {
				return usageErr
			}
			target = a
		}
	}
	if target == "" {
		return usageErr
	}
	data, err := os.ReadFile(target)
	if err != nil {
		return err
	}
	sc, err := replay.ParseScenario(data)
	if err != nil {
		return err
	}

	cli, done, err := verbClient(cli, remote, core.Options{})
	if err != nil {
		return err
	}
	defer done()
	resp, err := cli.Record(sc, out != "")
	if err != nil {
		return err
	}
	if out != "" {
		if err := os.WriteFile(out, resp.Archive, 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("recorded %s: %d records, %s\n", resp.Scenario, resp.Records, resp.Digest)
	if out != "" {
		fmt.Printf("archive saved to %s\n", out)
	}
	return nil
}

// replayArchiveCmd implements "dbox replay [-verify] [-remote] ARCHIVE.zip":
// re-execute a recorded scenario; with -verify the run's digest must
// match the archived one byte-for-byte. Loading the archive already
// checks that its records hash to that digest.
func replayArchiveCmd(cli *ctl.Client, rest []string) error {
	usageErr := fmt.Errorf("usage: dbox replay [-verify] [-remote] ARCHIVE.zip")
	verify, remote, target := false, false, ""
	for _, a := range rest {
		switch a {
		case "-verify", "--verify":
			verify = true
		case "-remote", "--remote":
			remote = true
		default:
			if strings.HasPrefix(a, "-") || target != "" {
				return usageErr
			}
			target = a
		}
	}
	if target == "" {
		return usageErr
	}
	ar, err := trace.LoadArchive(target)
	if err != nil {
		return err
	}
	if ar.Scenario == nil {
		return fmt.Errorf("replay: %s is a live trace, not a recorded run: it has no scenario", target)
	}
	sc, err := replay.ParseScenario(ar.Scenario)
	if err != nil {
		return err
	}

	cli, done, err := verbClient(cli, remote, core.Options{})
	if err != nil {
		return err
	}
	defer done()
	resp, err := cli.ReplayScenario(sc, ar.Digest, verify)
	if err != nil {
		return err
	}
	status := "replayed"
	if verify {
		status = "replayed and verified"
	}
	fmt.Printf("%s %s: %d records, %s\n", status, resp.Scenario, resp.Records, resp.Digest)
	return nil
}
