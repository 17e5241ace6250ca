// Command dbox is the Digibox command-line tool (Table 1 of the
// paper). It drives a running dboxd daemon over its control API; the
// scenario, record, replay-archive, swarm and capture verbs serve that
// API in process instead unless given -remote.
//
// Usage:
//
//	dbox [-d daemon_addr] COMMAND [args]
//
// Commands:
//
//	run TYPE NAME [k=v ...]   run a mock or scene (config via k=v)
//	stop NAME                 stop a mock or scene
//	check NAME                display the model in the console
//	watch NAME [-n max]       monitor model changes continuously
//	attach CHILD PARENT       attach a mock/scene to a scene
//	attach -d CHILD PARENT    detach
//	edit NAME PATH=VALUE ...  set model fields (e.g. power.intent=on)
//	commit NAME               commit a scene setup to the repository
//	commit -k TYPE            commit a type definition
//	commit -f NAME            commit despite vet errors
//	vet [-json] NAME|FILE     analyze a committed setup or a local file
//	vet [-json] --all         analyze every committed setup
//	push NAME                 upload a committed setup to the remote
//	pull NAME                 download a setup from the remote
//	recreate NAME [VERSION]   instantiate a pulled setup
//	checktrace NAME [VERSION] check scene properties against a shared trace
//	trace save FILE           download the daemon's trace archive
//	trace push NAME           publish the trace to the remote
//	replay NAME [-speed s]    replay a shared trace
//	record SCENARIO.yaml      record a scenario deterministically
//	replay [-verify] ARCHIVE  re-execute a replay archive (byte-exact)
//	chaos run PLAN.yaml       apply a fault-injection plan
//	swarm [flags]             run a sharded-broker load session (BENCH_swarm.json)
//	capture [flags]           fit a device profile from live traffic (dbox capture)
//	top [-n iters] [-i secs] [-watch secs]  live per-digi throughput/latency table
//	metrics                   dump Prometheus text exposition
//	ls                        list running mocks and scenes
//	status                    daemon status
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/model"
	"repro/internal/profile"
	"repro/internal/vet"
	"repro/internal/yamlite"

	// Kind libraries declare their config bounds with the vet engine in
	// init(); linking device in makes local-file "dbox vet" check them.
	_ "repro/internal/device"
)

func main() {
	daemon := flag.String("d", "127.0.0.1:7825", "dboxd control API address")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	cli := &ctl.Client{Base: "http://" + *daemon}
	if err := dispatch(cli, args); err != nil {
		fmt.Fprintf(os.Stderr, "dbox: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: dbox [-d daemon] COMMAND [args]

commands (Table 1):
  run TYPE NAME [k=v ...]    stop NAME
  run [-speed N|max] [-remote] SCENARIO.yaml
  check NAME                 watch NAME [max]
  attach [-d] CHILD PARENT   edit NAME PATH=VALUE ...
  commit [-k|-f] NAME        push NAME | pull NAME
  vet [-json] [--all | NAME|FILE]
  analyze [-json] [packages]
  recreate NAME [VERSION]    replay NAME [SPEED]
  record [-o OUT.zip] [-remote] SCENARIO.yaml
  replay [-verify] [-remote] ARCHIVE.zip
  trace save FILE | trace push NAME
  chaos run PLAN.yaml
  swarm [-devices N] [-rate R] [-period P] [-shards S] [-qos 0|1]
        [-profile closed|open|FILE] [-kill-shard N@T] [-max-recovery-p99 MS]
        [-max-p99 MS] [-o BENCH_swarm.json] [-remote]
        (closed and open are presets of a device profile: swarm -h)
  capture [-name N] [-seed S] [-duration D] [-o PROFILE.yaml]
          [-devices N] [-period P] [-speed N|max] [-commit] [-remote]
  top [-n iters] [-i secs] [-watch secs] | metrics
  ls | status
`)
}

func dispatch(cli *ctl.Client, args []string) error {
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "run":
		if isFileForm(rest) {
			return runScenarioCmd(cli, rest)
		}
		if len(rest) < 2 {
			return fmt.Errorf("usage: dbox run TYPE NAME [k=v ...] | dbox run [-speed N|max] SCENARIO.yaml")
		}
		config, err := parseKVs(rest[2:])
		if err != nil {
			return err
		}
		if err := cli.Run(rest[0], rest[1], config); err != nil {
			return err
		}
		fmt.Printf("running %s %s\n", rest[0], rest[1])
		return nil
	case "stop":
		if len(rest) != 1 {
			return fmt.Errorf("usage: dbox stop NAME")
		}
		if err := cli.Stop(rest[0]); err != nil {
			return err
		}
		fmt.Printf("stopped %s\n", rest[0])
		return nil
	case "check":
		if len(rest) != 1 {
			return fmt.Errorf("usage: dbox check NAME")
		}
		doc, err := cli.Check(rest[0])
		if err != nil {
			return err
		}
		fmt.Println(core.FormatDoc(doc))
		return nil
	case "watch":
		if len(rest) < 1 {
			return fmt.Errorf("usage: dbox watch NAME [max]")
		}
		max := 0
		if len(rest) > 1 {
			v, err := strconv.Atoi(rest[1])
			if err != nil {
				return fmt.Errorf("invalid max %q", rest[1])
			}
			max = v
		}
		return cli.Watch(rest[0], max, func(gen uint64, doc model.Doc, deleted bool) {
			if deleted {
				fmt.Printf("--- gen %d: deleted\n", gen)
				return
			}
			fmt.Printf("--- gen %d\n%s\n", gen, core.FormatDoc(doc))
		})
	case "attach":
		detach := false
		if len(rest) > 0 && rest[0] == "-d" {
			detach = true
			rest = rest[1:]
		}
		if len(rest) != 2 {
			return fmt.Errorf("usage: dbox attach [-d] CHILD PARENT")
		}
		if err := cli.Attach(rest[0], rest[1], detach); err != nil {
			return err
		}
		verb := "attached"
		if detach {
			verb = "detached"
		}
		fmt.Printf("%s %s %s %s\n", verb, rest[0], map[bool]string{true: "from", false: "to"}[detach], rest[1])
		return nil
	case "edit":
		if len(rest) < 2 {
			return fmt.Errorf("usage: dbox edit NAME PATH=VALUE ...")
		}
		patch := map[string]any{}
		for _, kv := range rest[1:] {
			path, val, err := splitKV(kv)
			if err != nil {
				return err
			}
			setNested(patch, path, val)
		}
		if err := cli.Edit(rest[0], patch); err != nil {
			return err
		}
		fmt.Printf("edited %s\n", rest[0])
		return nil
	case "commit":
		kind, force := false, false
		for len(rest) > 0 && (rest[0] == "-k" || rest[0] == "-f") {
			switch rest[0] {
			case "-k":
				kind = true
			case "-f":
				force = true
			}
			rest = rest[1:]
		}
		if len(rest) != 1 {
			return fmt.Errorf("usage: dbox commit [-k|-f] NAME")
		}
		version, err := cli.Commit(rest[0], kind, force)
		if err != nil {
			return err
		}
		fmt.Printf("committed %s %s\n", rest[0], version)
		return nil
	case "vet":
		return vetCmd(cli, rest)
	case "analyze":
		return analyzeCmd(rest)
	case "push":
		if len(rest) != 1 {
			return fmt.Errorf("usage: dbox push NAME")
		}
		if err := cli.Push(rest[0]); err != nil {
			return err
		}
		fmt.Printf("pushed %s\n", rest[0])
		return nil
	case "pull":
		if len(rest) != 1 {
			return fmt.Errorf("usage: dbox pull NAME")
		}
		if err := cli.Pull(rest[0]); err != nil {
			return err
		}
		fmt.Printf("pulled %s\n", rest[0])
		return nil
	case "recreate":
		if len(rest) < 1 || len(rest) > 2 {
			return fmt.Errorf("usage: dbox recreate NAME [VERSION]")
		}
		version := ""
		if len(rest) == 2 {
			version = rest[1]
		}
		if err := cli.Recreate(rest[0], version); err != nil {
			return err
		}
		fmt.Printf("recreated %s\n", rest[0])
		return nil
	case "record":
		return recordCmd(cli, rest)
	case "replay":
		// Archive form: any flag, or a target naming an existing file,
		// selects the deterministic record/replay path.
		if isFileForm(rest) {
			return replayArchiveCmd(cli, rest)
		}
		if len(rest) < 1 || len(rest) > 2 {
			return fmt.Errorf("usage: dbox replay NAME [SPEED]")
		}
		speed := 1.0
		if len(rest) == 2 {
			v, err := strconv.ParseFloat(rest[1], 64)
			if err != nil {
				return fmt.Errorf("invalid speed %q", rest[1])
			}
			speed = v
		}
		n, err := cli.Replay(rest[0], "", speed)
		if err != nil {
			return err
		}
		fmt.Printf("replayed %d records from %s\n", n, rest[0])
		return nil
	case "checktrace":
		if len(rest) < 1 || len(rest) > 2 {
			return fmt.Errorf("usage: dbox checktrace NAME [VERSION]")
		}
		version := ""
		if len(rest) == 2 {
			version = rest[1]
		}
		n, violations, err := cli.CheckTrace(rest[0], version)
		if err != nil {
			return err
		}
		fmt.Printf("checked %d records: %d violation(s)\n", n, len(violations))
		for _, v := range violations {
			fmt.Printf("  %v: %v\n", v["property"], v["detail"])
		}
		return nil
	case "trace":
		if len(rest) == 2 && rest[0] == "save" {
			_, raw, err := cli.DownloadTrace()
			if err != nil {
				return err
			}
			if err := os.WriteFile(rest[1], raw, 0o644); err != nil {
				return err
			}
			fmt.Printf("saved trace to %s (%d bytes)\n", rest[1], len(raw))
			return nil
		}
		if len(rest) == 2 && rest[0] == "push" {
			version, err := cli.PushTrace(rest[1])
			if err != nil {
				return err
			}
			fmt.Printf("pushed trace %s %s\n", rest[1], version)
			return nil
		}
		return fmt.Errorf("usage: dbox trace save FILE | dbox trace push NAME")
	case "chaos":
		if len(rest) != 2 || rest[0] != "run" {
			return fmt.Errorf("usage: dbox chaos run PLAN.yaml")
		}
		return chaosRunCmd(cli, rest[1])
	case "swarm":
		return swarmCmd(cli, rest)
	case "capture":
		return captureCmd(cli, rest)
	case "top":
		return topCmd(cli, rest)
	case "metrics":
		text, err := cli.MetricsText()
		if err != nil {
			return err
		}
		fmt.Print(text)
		return nil
	case "ls":
		names, err := cli.List()
		if err != nil {
			return err
		}
		for _, n := range names {
			fmt.Println(n)
		}
		return nil
	case "status":
		st, err := cli.Status()
		if err != nil {
			return err
		}
		keys := []string{"models", "pods_running", "pods_pending", "violations", "trace_len", "broker_addr", "rest_addr"}
		for _, k := range keys {
			fmt.Printf("%-13s %v\n", k+":", st[k])
		}
		return nil
	default:
		usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// verbClient picks the transport for a verb that runs on a testbed:
// with -remote the daemon behind cli, otherwise the same control API
// served in process on a fresh listener-less testbed built from opts.
// Either way the verb makes the same ctl.Client call; done stops the
// in-process testbed.
func verbClient(cli *ctl.Client, remote bool, opts core.Options) (*ctl.Client, func(), error) {
	if remote {
		return cli, func() {}, nil
	}
	opts.BrokerAddr, opts.RESTAddr = "none", "none"
	tb, err := ctl.NewTestbed(opts)
	if err != nil {
		return nil, nil, err
	}
	return ctl.InProcess((&ctl.Server{TB: tb}).Handler()), tb.Stop, nil
}

// chaosRunCmd implements "dbox chaos run PLAN.yaml": parse and
// validate the plan locally, apply it through the daemon, and print
// the engine's report. The request timeout is sized to the plan.
func chaosRunCmd(cli *ctl.Client, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	plan, err := chaos.ParsePlan(data)
	if err != nil {
		return err
	}
	if err := plan.Validate(); err != nil {
		return err
	}
	rep, err := cli.WithTimeout(plan.End() + 60*time.Second).ChaosRun(plan)
	if err != nil {
		return err
	}
	fmt.Printf("plan %s (seed %d): %d injected, %d reverted, %d skipped\n",
		rep.Plan, rep.Seed, rep.Injected, rep.Reverted, len(rep.Skipped))
	for _, line := range rep.Applied {
		fmt.Printf("  %s\n", line)
	}
	for _, s := range rep.Skipped {
		fmt.Printf("  skipped: %s\n", s)
	}
	return nil
}

// vetCmd implements "dbox vet [-json] [--all | NAME|FILE]". A target
// naming an existing file is analyzed locally without a daemon (the
// repository-backed rules are skipped); otherwise the daemon vets the
// committed setup against its repository. Error-severity findings make
// the command fail.
func vetCmd(cli *ctl.Client, rest []string) error {
	asJSON, all := false, false
	target := ""
	for _, a := range rest {
		switch a {
		case "-json", "--json":
			asJSON = true
		case "-all", "--all":
			all = true
		default:
			if strings.HasPrefix(a, "-") || target != "" {
				return fmt.Errorf("usage: dbox vet [-json] [--all | NAME|FILE]")
			}
			target = a
		}
	}
	if all == (target != "") {
		return fmt.Errorf("usage: dbox vet [-json] [--all | NAME|FILE]")
	}
	var results map[string][]vet.Diagnostic
	if data, err := os.ReadFile(target); !all && err == nil {
		results = map[string][]vet.Diagnostic{target: vetFileData(target, data)}
	} else {
		results, err = cli.Vet(target, "", all)
		if err != nil {
			return err
		}
	}
	names := make([]string, 0, len(results))
	for n := range results {
		names = append(names, n)
	}
	sort.Strings(names)
	errCount := 0
	if asJSON {
		out := map[string]any{}
		for n, diags := range results {
			if diags == nil {
				diags = []vet.Diagnostic{}
			}
			out[n] = diags
			errCount += len(vet.Errors(diags))
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return err
		}
	} else {
		for _, n := range names {
			diags := results[n]
			errCount += len(vet.Errors(diags))
			if len(diags) == 0 {
				fmt.Printf("%s: clean\n", n)
				continue
			}
			fmt.Print(vet.Text(diags))
		}
	}
	if errCount > 0 {
		return fmt.Errorf("%d error(s)", errCount)
	}
	return nil
}

// parseKVs converts "k=v" args into a config map with scalar typing.
func parseKVs(args []string) (map[string]any, error) {
	if len(args) == 0 {
		return nil, nil
	}
	out := map[string]any{}
	for _, kv := range args {
		k, v, err := splitKV(kv)
		if err != nil {
			return nil, err
		}
		out[k] = v
	}
	return out, nil
}

func splitKV(kv string) (string, any, error) {
	idx := strings.Index(kv, "=")
	if idx <= 0 {
		return "", nil, fmt.Errorf("expected KEY=VALUE, got %q", kv)
	}
	return kv[:idx], parseScalar(kv[idx+1:]), nil
}

// parseScalar types CLI values: bool, int, float, else string.
func parseScalar(s string) any {
	switch s {
	case "true":
		return true
	case "false":
		return false
	case "null":
		return nil
	}
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return n
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return f
	}
	return s
}

// setNested expands "power.intent" into {"power": {"intent": v}}.
func setNested(patch map[string]any, path string, v any) {
	parts := strings.Split(path, ".")
	cur := patch
	for _, p := range parts[:len(parts)-1] {
		next, ok := cur[p].(map[string]any)
		if !ok {
			next = map[string]any{}
			cur[p] = next
		}
		cur = next
	}
	cur[parts[len(parts)-1]] = v
}

// vetFileData routes a local file to the right analyzer: a document
// with a top-level profile name and populations list is a device
// profile (V018 and friends); everything else is a setup config.
func vetFileData(name string, data []byte) []vet.Diagnostic {
	if docs, err := yamlite.DecodeAll(data); err == nil && len(docs) == 1 && profile.IsProfileValue(docs[0]) {
		return vet.RunProfileData(name, data)
	}
	return vet.RunData(name, data, nil)
}
