package main

// dbox swarm: the CLI surface of the swarm scale-out layer. Like
// "dbox record", it serves the control API in process by default — on
// its own listener-less testbed with -nodes kube nodes — and -remote
// only sends the same request to a daemon instead.

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/profile"
	"repro/internal/swarm"
)

// swarmCmd implements:
//
//	dbox swarm [-devices N] [-rate R] [-shards S] [-profile closed|open|FILE]
//	           [-duration D] [-period P] [-workers N] [-subs N]
//	           [-seed N] [-qos 0|1] [-nodes N]
//	           [-kill-shard N@T] [-max-recovery-p99 MS]
//	           [-max-p99 MS] [-o BENCH_swarm.json] [-remote]
//
// The command fails (non-zero exit) on any QoS 1 loss, and on a p99
// publish→deliver latency above -max-p99 when one is set — the same
// gate CI's swarm-gate job applies. -kill-shard (repeatable) crashes
// shard N at offset T into the run — the failover drill: the pool's
// failover must take over with zero QoS 1 loss, and the report
// gains failover/recovery columns gated by -max-recovery-p99.
func swarmCmd(cli *ctl.Client, rest []string) error {
	fs := flag.NewFlagSet("swarm", flag.ContinueOnError)
	var kills []ctl.SwarmKill
	fs.Func("kill-shard", "crash shard N at offset T into the run, as N@T (e.g. 1@2s); N@T@FOR revives it FOR later; repeatable", func(v string) error {
		k, err := parseShardKill(v)
		if err != nil {
			return err
		}
		kills = append(kills, ctl.SwarmKill{Shard: k.Shard, AtSec: k.At.Seconds(), ForSec: k.For.Seconds()})
		return nil
	})
	devices := fs.Int("devices", 0, "simulated device count")
	rate := fs.Float64("rate", 0, "open preset target msgs/s")
	shards := fs.Int("shards", 0, "broker shards (0 = derive from device count)")
	profFlag := fs.String("profile", "", "device profile: the closed or open preset, or a profile YAML file")
	duration := fs.Duration("duration", 0, "run length")
	period := fs.Duration("period", 0, "closed preset per-device publish period (at least 1ms)")
	workers := fs.Int("workers", 0, "generator workers (one kube pod each)")
	subs := fs.Int("subs", 0, "wildcard consumer subscriptions")
	seed := fs.Int64("seed", 0, "load-generator seed")
	qos := fs.Int("qos", 1, "publish QoS (0 or 1)")
	nodes := fs.Int("nodes", 3, "local-mode kube nodes to spread workers over")
	maxP99 := fs.Float64("max-p99", 0, "fail when p99 publish→deliver latency exceeds this many ms")
	maxRecP99 := fs.Float64("max-recovery-p99", 0, "fail when p99 shard-failover recovery exceeds this many ms (with -kill-shard)")
	out := fs.String("o", "", "write the JSON report (BENCH_swarm.json) to this file")
	remote := fs.Bool("remote", false, "run on the daemon instead of locally")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("usage: dbox swarm [flags] (see dbox swarm -h)")
	}

	// -profile takes a preset name or a device-profile file: any value
	// that is not a preset is read as profile YAML (hand-written, or
	// the output of dbox capture).
	discipline := *profFlag
	var deviceProf *profile.Profile
	switch discipline {
	case "", string(swarm.ProfileClosed), string(swarm.ProfileOpen):
	default:
		data, err := os.ReadFile(discipline)
		if err != nil {
			return fmt.Errorf("swarm: -profile %q is neither closed, open, nor a readable profile file: %w", discipline, err)
		}
		p, err := profile.Parse(data)
		if err != nil {
			return fmt.Errorf("swarm: -profile %s: %w", discipline, err)
		}
		deviceProf = p
		discipline = ""
	}

	req := ctl.SwarmRequest{
		Profile:     discipline,
		Devices:     *devices,
		Rate:        *rate,
		PeriodSec:   period.Seconds(),
		DurationSec: duration.Seconds(),
		Workers:     *workers,
		Seed:        *seed,
		QoS:         *qos,
		Subscribers: *subs,
		Shards:      *shards,
		Kills:       kills,
	}
	if deviceProf != nil {
		req.DeviceProfile = deviceProf.Value()
	}
	// -nodes kube nodes to spread the in-process run's workers over.
	opts := core.Options{}
	for i := 0; i < max(*nodes, 1); i++ {
		opts.Nodes = append(opts.Nodes, core.NodeSpec{
			Name:     fmt.Sprintf("swarm-node-%d", i),
			Capacity: 64,
			Zone:     "local",
		})
	}
	cli, done, err := verbClient(cli, *remote, opts)
	if err != nil {
		return err
	}
	defer done()
	wait := *duration
	if wait <= 0 {
		wait = 10 * time.Second // the spec default
	}
	rep, err := cli.WithTimeout(wait + 120*time.Second).Swarm(req)
	if err != nil {
		return err
	}

	printSwarmReport(rep)
	if *out != "" {
		if err := rep.WriteJSON(*out); err != nil {
			return err
		}
		fmt.Printf("report saved to %s\n", *out)
	}
	if err := rep.Gate(*maxP99); err != nil {
		return err
	}
	if len(kills) > 0 {
		return rep.GateRecovery(int64(len(kills)), *maxRecP99)
	}
	return nil
}

// parseShardKill parses N@T or N@T@FOR (e.g. "1@2s", "0@500ms@3s").
func parseShardKill(v string) (core.ShardKill, error) {
	parts := strings.Split(v, "@")
	if len(parts) < 2 || len(parts) > 3 {
		return core.ShardKill{}, fmt.Errorf("kill-shard %q: want N@T or N@T@FOR", v)
	}
	shard, err := strconv.Atoi(parts[0])
	if err != nil || shard < 0 {
		return core.ShardKill{}, fmt.Errorf("kill-shard %q: bad shard index %q", v, parts[0])
	}
	at, err := time.ParseDuration(parts[1])
	if err != nil || at < 0 {
		return core.ShardKill{}, fmt.Errorf("kill-shard %q: bad offset %q", v, parts[1])
	}
	k := core.ShardKill{Shard: shard, At: at}
	if len(parts) == 3 {
		if k.For, err = time.ParseDuration(parts[2]); err != nil || k.For <= 0 {
			return core.ShardKill{}, fmt.Errorf("kill-shard %q: bad revive delay %q", v, parts[2])
		}
	}
	return k, nil
}

func printSwarmReport(rep *swarm.Report) {
	pacing := fmt.Sprintf("rate %.0f msg/s", rep.RateTarget)
	switch rep.Profile {
	case string(swarm.ProfileClosed):
		pacing = fmt.Sprintf("period %.3fs", rep.PeriodSec)
	case string(swarm.ProfileProfiled):
		pacing = fmt.Sprintf("device profile %q", rep.ProfileName)
	}
	fmt.Printf("swarm %s: %d devices, %d shards, %d workers, %d subs, qos %d, %s, %.1fs\n",
		rep.Profile, rep.Devices, rep.Shards, rep.Workers, rep.Subscribers,
		rep.QoS, pacing, rep.DurationSec)
	fmt.Printf("published %d (%.0f msg/s), delivered %d/%d (%.0f msg/s), lost %d, dropped %d, bridge forwards %d\n",
		rep.Published, rep.PublishRate, rep.Delivered, rep.Expected,
		rep.DeliveryRate, rep.Lost, rep.Dropped, rep.BridgeForwards)
	fmt.Printf("latency p50 %.3f ms, p99 %.3f ms (%d samples)\n",
		rep.P50Ms, rep.P99Ms, rep.LatencySamples)
	if rep.Failovers > 0 || rep.Shed > 0 || len(rep.ShardsDown) > 0 {
		fmt.Printf("failovers %d, redelivered %d, shed %d, recovery p50 %.1f ms, p99 %.1f ms, shards down %v\n",
			rep.Failovers, rep.Redelivered, rep.Shed,
			rep.RecoveryP50Ms, rep.RecoveryP99Ms, rep.ShardsDown)
	}
	if len(rep.Placements) > 0 {
		pods := make([]string, 0, len(rep.Placements))
		for pod := range rep.Placements {
			pods = append(pods, pod)
		}
		sort.Strings(pods)
		for _, pod := range pods {
			fmt.Printf("  %s -> %s\n", pod, rep.Placements[pod])
		}
	}
}
