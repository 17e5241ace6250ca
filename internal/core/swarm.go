package core

// Swarm scale testing: Testbed.RunSwarm shards the message plane
// across a swarm.Pool, spreads one generator pod per load worker over
// the cluster's nodes, and settles the run into a machine-readable
// swarm.Report — the engine behind `dbox swarm` and POST /ctl/swarm.

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/broker"
	"repro/internal/chaos"
	"repro/internal/clock"
	"repro/internal/kube"
	"repro/internal/swarm"
)

// SwarmSpec configures one RunSwarm execution.
type SwarmSpec struct {
	// Load is the generator spec; zero fields are defaulted
	// (swarm.LoadSpec.WithDefaults).
	Load swarm.LoadSpec
	// Shards is the broker shard count; 0 derives it from the device
	// count (swarm.RequiredShards).
	Shards int
	// Kills schedules shard-kill faults during the run — the failover
	// drill. Each kill is compiled into a chaos plan (seeded from the
	// load seed) and applied by the pool's self-healing plane.
	Kills []ShardKill
	// Tap, when set, receives every message the run's consumers see.
	// It must be fast and non-blocking; it runs on the delivery path.
	Tap func(topic string, payload []byte) `json:"-"`
	// PublishTap, when set, receives every message as its worker
	// publishes it, with the scenario offset the generator scheduled it
	// at — the capture path's feed, because that offset is exact at any
	// speed where a clock read on the delivery side is not. It runs on
	// the generator workers and must be safe for concurrent use.
	PublishTap func(at time.Duration, topic string, payload []byte) `json:"-"`
}

// ShardKill is one scheduled shard crash: shard Shard dies At into the
// run; when For > 0 a revive is scheduled at At+For, otherwise the
// shard stays down and its keys live on the survivors for the rest of
// the run.
type ShardKill struct {
	Shard int
	At    time.Duration
	For   time.Duration
}

// swarmWorkerImage is the kube image name of a swarm generator worker.
const swarmWorkerImage = "swarm-worker"

// swarmPodName is the pod name of generator worker w.
func swarmPodName(w int) string {
	return fmt.Sprintf("swarm-worker-%d", w)
}

// RunSwarm runs one swarm load session against a dedicated shard pool:
// it builds the pool on the testbed's metrics registry and span tracer,
// schedules one generator-worker pod per load worker with the spread
// placement strategy (so workers land one per node before any node
// doubles up), waits for every worker to finish, and returns the
// settled report with pod→node placements. Runs are serialized — a
// second RunSwarm blocks until the first finishes. The testbed must be
// started.
func (tb *Testbed) RunSwarm(ctx context.Context, spec SwarmSpec) (*swarm.Report, error) {
	tb.swarmMu.Lock()
	defer tb.swarmMu.Unlock()

	tb.mu.Lock()
	live := tb.started && !tb.stopped
	tb.mu.Unlock()
	if !live {
		return nil, fmt.Errorf("core: swarm needs a started testbed")
	}

	load := spec.Load.WithDefaults()
	if err := load.Validate(); err != nil {
		return nil, err
	}
	shards := spec.Shards
	if shards <= 0 {
		shards = swarm.RequiredShards(load.Devices)
	}

	for _, k := range spec.Kills {
		if k.Shard < 0 || k.Shard >= shards {
			return nil, fmt.Errorf("core: kill-shard %d out of range (pool has %d shards)", k.Shard, shards)
		}
	}

	pool := swarm.NewPool(swarm.PoolOptions{
		Shards: shards,
		Obs:    tb.Obs,
		Tracer: tb.Tracer,
		Bus:    tb.Bus,
		Clock:  tb.clk,
	})
	defer pool.Close()
	tb.setActiveSwarm(pool)
	defer tb.setActiveSwarm(nil)

	sess, err := swarm.NewSession(pool, load, tb.Obs)
	if err != nil {
		return nil, err
	}
	if spec.PublishTap != nil {
		sess.SetTap(spec.PublishTap)
	}
	// The delivery tap rides a dedicated consumer on the pool so it
	// sees exactly what the run's subscribers see (one copy per
	// message, not per subscriber).
	if spec.Tap != nil {
		tapFilter := load.Prefix + "/+/status"
		if err := pool.Subscribe("capture-tap", tapFilter, load.QoS, func(m broker.Message) {
			spec.Tap(m.Topic, m.Payload)
		}); err != nil {
			return nil, err
		}
		defer pool.Unsubscribe("capture-tap", tapFilter)
	}
	// The session paces its load generator and quiesce polls on the
	// testbed clock, so swarm windows compress with TimeScale.
	sess.SetClock(tb.clk)

	// One pod per generator worker. The factory is re-registered per
	// run (runs are serialized) so each run's pods drive its session.
	tb.Cluster.RegisterImage(swarmWorkerImage, func(env map[string]any) (kube.Workload, error) {
		w, ok := env["worker"].(int)
		if !ok {
			return nil, fmt.Errorf("core: swarm worker pod missing worker index")
		}
		return kube.WorkloadFunc(func(ctx context.Context) error {
			return sess.RunWorker(ctx, w)
		}), nil
	})
	podNames := make([]string, sess.Workers())
	for w := range podNames {
		podNames[w] = swarmPodName(w)
		err := tb.Cluster.CreatePod(&kube.Pod{
			Name:   podNames[w],
			Labels: map[string]string{"app": "swarm"},
			Spec: kube.PodSpec{
				Image:         swarmWorkerImage,
				Env:           map[string]any{"worker": w},
				RestartPolicy: kube.RestartNever,
				Strategy:      kube.StrategySpread,
			},
		})
		if err != nil {
			tb.deleteSwarmPods(podNames[:w])
			return nil, err
		}
	}
	defer tb.deleteSwarmPods(podNames)

	// The kill schedule is a chaos plan walked on the testbed clock (see
	// walkOnClock) through the pool's SwarmInjector surface; the pool's
	// failure detection takes each kill from there.
	var killsDone <-chan struct{}
	if len(spec.Kills) > 0 {
		eng := tb.ChaosEngine()
		eng.Swarm = pool
		done, stop, err := walkOnClock(tb.clk, eng, killPlan(load.Seed, spec.Kills))
		if err != nil {
			return nil, fmt.Errorf("core: swarm kill schedule: %w", err)
		}
		defer stop()
		killsDone = done
	}

	placements, err := tb.waitSwarmPods(ctx, podNames, load.Duration+tb.opts.ReadyTimeout)
	if err != nil {
		return nil, err
	}
	if killsDone != nil {
		select {
		case <-killsDone:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	rep := sess.Finish(tb.opts.ReadyTimeout)
	rep.Placements = placements
	return rep, nil
}

// killPlan compiles a kill schedule into a chaos plan.
func killPlan(seed int64, kills []ShardKill) *chaos.Plan {
	p := &chaos.Plan{Name: "swarm-kills", Seed: seed}
	for _, k := range kills {
		p.Events = append(p.Events, chaos.Event{
			At:    k.At,
			Fault: chaos.FaultShardKill,
			Shard: k.Shard,
			For:   k.For,
		})
	}
	return p
}

// walkOnClock applies a compiled plan on clk as the replay engine does:
// each step in its own timer's callback, on the goroutine driving the
// clock, so a kill arms its detection ahead of its revert whatever the
// host does. (Walked on a goroutine of its own, the plan let an unpaced
// clock jump past both before the goroutine ran.) done closes once
// every step applied; stop disarms the rest.
func walkOnClock(clk clock.Clock, eng *chaos.Engine, plan *chaos.Plan) (done <-chan struct{}, stop func(), err error) {
	steps, err := chaos.Compile(plan)
	if err != nil {
		return nil, nil, err
	}
	w := eng.NewWalker(plan)
	finished := make(chan struct{})
	var mu sync.Mutex // serialises the steps against stop
	stopped, left := false, len(steps)
	timers := make([]clock.Timer, len(steps))
	for k, st := range steps {
		timers[k] = clk.AfterFunc(st.At, func() {
			mu.Lock()
			defer mu.Unlock()
			if stopped {
				return
			}
			w.Apply(st)
			if left--; left == 0 {
				close(finished)
			}
		})
	}
	return finished, func() {
		mu.Lock()
		defer mu.Unlock()
		stopped = true
		for _, t := range timers {
			t.Stop()
		}
	}, nil
}

// setActiveSwarm publishes (or clears) the in-flight swarm pool for
// chaos targeting and the /readyz shard-health probe.
func (tb *Testbed) setActiveSwarm(p *swarm.Pool) {
	tb.mu.Lock()
	tb.activeSwarm = p
	tb.mu.Unlock()
}

// SwarmStats snapshots the active swarm pool's per-shard and
// aggregate counters; nil when no swarm run is in flight. /ctl/status
// serves it so the dashboard can draw per-shard throughput without
// touching pool internals.
func (tb *Testbed) SwarmStats() *swarm.Stats {
	tb.mu.Lock()
	p := tb.activeSwarm
	tb.mu.Unlock()
	if p == nil {
		return nil
	}
	st := p.Stats()
	return &st
}

// SwarmHealth reports the in-flight swarm pool's shard health for the
// readiness probe: total shards and how many are down. A testbed with
// no swarm run in flight is trivially ready (0, nil).
func (tb *Testbed) SwarmHealth() (shards int, down []int) {
	tb.mu.Lock()
	p := tb.activeSwarm
	tb.mu.Unlock()
	if p == nil {
		return 0, nil
	}
	return p.NumShards(), p.DownShards()
}

// waitSwarmPods watches the run's pods until every one succeeded,
// returning pod→node placements. Workers only return errors on
// programming mistakes, so a Failed pod is surfaced verbatim. The
// workers do real work, so past the scenario timeout they get
// ReadyTimeout of wall time.
func (tb *Testbed) waitSwarmPods(ctx context.Context, podNames []string, timeout time.Duration) (map[string]string, error) {
	events, stop := tb.Cluster.WatchPods(podNames...)
	defer stop()
	d := clock.NewDeadline(tb.clk, timeout, tb.opts.ReadyTimeout)
	defer d.Stop()
	placements := map[string]string{}
	for len(placements) < len(podNames) {
		select {
		case ev := <-events:
			switch {
			case ev.Type == kube.Deleted:
				return nil, kube.ErrNotFound{Kind: "pod", Name: ev.Pod.Name}
			case ev.Pod.Status.Phase == kube.PodSucceeded:
				placements[ev.Pod.Name] = ev.Pod.Status.NodeName
			case ev.Pod.Status.Phase == kube.PodFailed:
				return nil, fmt.Errorf("core: swarm pod %s failed: %s", ev.Pod.Name, ev.Pod.Status.Message)
			}
		case <-d.Done():
			waiting := slices.DeleteFunc(slices.Clone(podNames), func(name string) bool {
				_, placed := placements[name]
				return placed
			})
			return nil, fmt.Errorf("core: swarm timed out waiting for pods %s", strings.Join(waiting, ", "))
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return placements, nil
}

func (tb *Testbed) deleteSwarmPods(podNames []string) {
	for _, name := range podNames {
		tb.Cluster.DeletePod(name)
	}
}
