package main

// dbox run (scenario form): time-compressed execution of a scenario
// file on the deterministic engine. "dbox run -speed max S.yaml"
// replays pure discrete-event time; "-speed N" wall-paces the same
// run N× faster than real time. Either way the chained digest is
// identical — (time, seq) ordering, not wall time, decides the trace.

import (
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/replay"
)

// isFileForm reports whether a "dbox run" or "dbox replay" invocation
// is the file form — a scenario run or an archive replay — rather than
// the daemon form ("dbox run TYPE NAME [k=v ...]", "dbox replay NAME
// [SPEED]"): any flag argument, or a target naming a file.
func isFileForm(rest []string) bool {
	for _, a := range rest {
		if strings.HasPrefix(a, "-") {
			return true
		}
		if st, err := os.Stat(a); err == nil && !st.IsDir() {
			return true
		}
	}
	return false
}

// runScenarioCmd implements "dbox run [-speed N|max] [-remote] SCENARIO.yaml".
func runScenarioCmd(cli *ctl.Client, rest []string) error {
	usageErr := fmt.Errorf("usage: dbox run [-speed N|max] [-remote] SCENARIO.yaml")
	speedArg, remote, target := "max", false, ""
	for i := 0; i < len(rest); i++ {
		switch a := rest[i]; a {
		case "-speed", "--speed":
			i++
			if i >= len(rest) {
				return usageErr
			}
			speedArg = rest[i]
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
	speed, err := clock.ParseSpeed(speedArg)
	if err != nil {
		return err
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
	// A paced run holds the request open for duration/speed of wall
	// time; size the client timeout to that plus slack.
	resp, err := cli.WithTimeout(pacedTimeout(sc.Duration, speed)).RunScenario(sc, clock.FormatSpeed(speed))
	if err != nil {
		return err
	}
	fmt.Printf("ran %s at speed %s: %d records, %s\n", resp.Scenario, resp.Speed, resp.Records, resp.Digest)
	if wall := time.Duration(resp.WallMs) * time.Millisecond; wall > 0 {
		fmt.Printf("scenario %v in %v wall (%.0fx compression)\n", sc.Duration, wall, float64(sc.Duration)/float64(wall))
	} else {
		fmt.Printf("scenario %v in <1ms wall\n", sc.Duration)
	}
	return nil
}

// pacedTimeout is the HTTP client timeout for a paced run:
// the expected wall time of the run plus generous slack.
func pacedTimeout(d time.Duration, speed float64) time.Duration {
	timeout := 60 * time.Second
	if speed != clock.SpeedMax {
		if wall := time.Duration(float64(d) / speed); wall > timeout/2 {
			timeout = 2*wall + 30*time.Second
		}
	}
	return timeout
}
