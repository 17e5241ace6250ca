package main

// dbox capture: record live traffic into a fitted device profile
// through POST /ctl/capture. Local mode serves that request in process
// on a listener-less, time-compressed testbed and drives a closed-loop
// swarm source while tapping it — 60 scenario seconds settle in wall
// milliseconds — while -remote sends it to a daemon, which either fits
// the statuses its scene's digis sent in the window, read from its
// trace, or drives the swarm source the same way.

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/profile"
	"repro/internal/swarm"
)

// captureCmd implements:
//
//	dbox capture [-name N] [-seed S] [-duration D] [-o FILE] [-commit]
//	             [-devices N] [-period P] [-workers N] [-shards S]
//	             [-speed N|max] [-repo DIR] [-filter F] [-remote]
//
// Locally the capture always drives its own swarm source (-devices).
// With -remote and -devices 0 the daemon waits out -duration of
// scenario time instead and fits what the deployed scene's digis
// published in that window, as its trace recorded it.
func captureCmd(cli *ctl.Client, rest []string) error {
	fs := flag.NewFlagSet("capture", flag.ContinueOnError)
	name := fs.String("name", "captured", "name of the fitted profile")
	seed := fs.Int64("seed", 1, "seed recorded in the fitted profile (and the local source)")
	duration := fs.Duration("duration", 60*time.Second, "capture window in scenario time")
	devices := fs.Int("devices", 24, "device count of the swarm source (0 with -remote = fit the daemon's scene from its trace)")
	period := fs.Duration("period", 250*time.Millisecond, "closed-loop publish period of the swarm source")
	workers := fs.Int("workers", 0, "generator workers of the swarm source")
	shards := fs.Int("shards", 0, "broker shards of the swarm source (0 = derive)")
	speed := fs.String("speed", "max", "local time-compression factor (N or max)")
	filter := fs.String("filter", "", "topic filter for a scene capture (default +/+/status)")
	out := fs.String("o", "", "write the fitted profile YAML to this file")
	commit := fs.Bool("commit", false, "commit the fitted profile to the scene repository")
	repoDir := fs.String("repo", "", "local scene repository directory (for -commit without -remote)")
	remote := fs.Bool("remote", false, "capture on the daemon instead of locally")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("usage: dbox capture [flags] (see dbox capture -h)")
	}

	opts := core.Options{
		Nodes:        []core.NodeSpec{{Name: "capture-node", Capacity: 64, Zone: "local"}},
		LocalRepoDir: *repoDir,
	}
	if !*remote {
		if *devices <= 0 {
			return fmt.Errorf("capture: local mode needs a swarm source; set -devices (or capture a daemon's scene with -remote)")
		}
		factor, err := clock.ParseSpeed(*speed)
		if err != nil {
			return fmt.Errorf("capture: -speed: %w", err)
		}
		if *commit && *repoDir == "" {
			return fmt.Errorf("capture: -commit locally needs -repo DIR (or use -remote against a daemon)")
		}
		opts.TimeScale = factor
	}
	req := ctl.CaptureRequest{
		DurationSec: duration.Seconds(),
		Filter:      *filter,
		Name:        *name,
		Seed:        *seed,
		Commit:      *commit,
	}
	if *devices > 0 {
		// The swarm source a capture drives and taps: the closed preset.
		req.Swarm = &ctl.SwarmRequest{
			Profile:     string(swarm.ProfileClosed),
			Devices:     *devices,
			PeriodSec:   period.Seconds(),
			DurationSec: duration.Seconds(),
			Workers:     *workers,
			Seed:        *seed,
			QoS:         1,
			Subscribers: 1,
			Shards:      *shards,
		}
	}
	cli, done, err := verbClient(cli, *remote, opts)
	if err != nil {
		return err
	}
	defer done()
	prof, resp, err := cli.WithTimeout(*duration + 120*time.Second).Capture(req)
	if err != nil {
		return err
	}

	printCapture(prof, resp.Messages, resp.Classes)
	if resp.Version != "" {
		fmt.Printf("committed profiles/%s@%s\n", prof.Name, resp.Version)
	}
	if *out != "" {
		data, err := profile.Marshal(prof)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("profile saved to %s\n", *out)
	}
	return nil
}

func printCapture(p *profile.Profile, messages int64, classes map[string]int64) {
	fmt.Printf("capture %s: %d messages, %d populations, seed %d\n",
		p.Name, messages, len(p.Populations), p.Seed)
	kinds := make([]string, 0, len(classes))
	for k := range classes {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	byKind := map[string]profile.Population{}
	for _, pop := range p.Populations {
		byKind[pop.Kind] = pop
	}
	for _, k := range kinds {
		pop, ok := byKind[k]
		if !ok {
			fmt.Printf("  %-14s %6d msgs\n", k, classes[k])
			continue
		}
		extra := ""
		if pop.Burst != nil {
			extra = fmt.Sprintf(", burst x%.0f every %s", pop.Burst.Factor, pop.Burst.Every)
		}
		fmt.Printf("  %-14s %6d msgs, %d devices, %s cadence mean %s, %d fields%s\n",
			k, classes[k], pop.Count, pop.Cadence.Dist, pop.Cadence.Mean, len(pop.Fields), extra)
	}
}
