// Package core implements Digibox's primary contribution: the
// scene-centric prototyping testbed.
//
// A Testbed assembles the substrates — model store, digi runtime, MQTT
// broker, REST gateway, kube cluster, trace log, property checker, and
// scene repository — and exposes the dbox verb set of Table 1:
//
//	Run / Stop        run or stop a mock or scene (as a pod)
//	Check / Watch     inspect or stream a model
//	Attach / Detach   wire mocks into scenes, scenes into scenes
//	Edit              set intents (emulating user interaction)
//	CommitKind        version a mock/scene type in the repository
//	CommitScene       version a scene subtree as a shareable setup
//	Push / Pull       share setups via a remote repository
//	Recreate          instantiate a pulled setup
//	Replay            replay a recorded trace against live digis
//
// The package is deliberately thin over the substrates: scene-centric
// semantics live in the digi runtime and the kind libraries; this
// package provides composition, lifecycle, and the workflow verbs.
package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/broker"
	"repro/internal/clock"
	"repro/internal/digi"
	"repro/internal/kube"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/property"
	"repro/internal/repo"
	"repro/internal/rest"
	"repro/internal/swarm"
	"repro/internal/trace"
)

// NodeSpec declares one simulated machine for the testbed cluster.
type NodeSpec struct {
	Name     string
	Capacity int
	Zone     string
}

// ZoneDelay declares a simulated one-way delay between two zones.
type ZoneDelay struct {
	A, B  string
	Delay time.Duration
}

// Options configures a Testbed. The zero value gives a single-node
// "laptop" deployment with an in-process broker and gateway on
// ephemeral loopback ports.
type Options struct {
	// Nodes defaults to one node {"laptop", 4096, "local"}.
	Nodes []NodeSpec
	// ZoneDelays declares inter-zone network delays.
	ZoneDelays []ZoneDelay
	// GatewayZone is the zone the REST gateway (and the application
	// under test) is considered to run in; requests to mocks on nodes
	// in other zones incur the inter-zone delay. Defaults to the first
	// node's zone.
	GatewayZone string
	// BrokerAddr / RESTAddr default to "127.0.0.1:0". Empty string
	// selects the default; "none" disables the listener (in-process
	// use only).
	BrokerAddr string
	RESTAddr   string
	// LocalRepoDir / RemoteRepoDir, when set, open scene repositories
	// for commit/push/pull. Unset leaves repository verbs disabled.
	LocalRepoDir  string
	RemoteRepoDir string
	// ReadyTimeout bounds digi startup waits; default 10s.
	ReadyTimeout time.Duration
	// Observer, when set, connects a wire MQTT client subscribed to
	// "#" (QoS 1) so every publish has at least one wire delivery.
	// This closes publish→deliver spans even when no application
	// client is attached, making end-to-end latency histograms live
	// from the first publish.
	Observer bool
	// TimeScale runs the whole testbed on a scaled scenario clock:
	// keepalive timers, chaos schedules, swarm pacing, kube backoff,
	// span and trace timestamps all advance at TimeScale× wall speed.
	// 0 and 1 mean real time (the wall clock, no pacing goroutine);
	// clock.SpeedMax fires timers back-to-back, freezing scenario
	// time while the heap is idle — suitable for bounded drills, not
	// long-lived daemons. Finite values must be positive.
	TimeScale float64
}

// Testbed is one Digibox prototyping environment.
type Testbed struct {
	opts Options

	Store    *model.Store
	Log      *trace.Log
	Registry *digi.Registry
	Runtime  *digi.Runtime
	Broker   *broker.Broker
	Cluster  *kube.Cluster
	Gateway  *rest.Gateway
	Checker  *property.Checker

	// Obs is the testbed-wide metrics registry; every layer registers
	// its families here and GET /ctl/metrics exposes it. Tracer stamps
	// publish→deliver spans through the broker.
	Obs    *obs.Registry
	Tracer *obs.Tracer

	// Bus is the testbed-wide fan-out event bus: the broker, chaos
	// engine, swarm health monitor, and kube cluster publish
	// fault/shard/pod/client events into it, and GET /ctl/events
	// streams it out as SSE. Version is the build stamp surfaced on
	// /healthz and /ctl/status.
	Bus     *obs.Bus
	Version string

	// startedAt is stamped by Start for uptime reporting.
	startedAt time.Time

	localRepo  *repo.Repo
	remoteRepo *repo.Repo

	// observer is the wildcard subscriber session (Options.Observer).
	observer *broker.Client

	mu      sync.Mutex
	started bool
	stopped bool
	// swarmMu serializes RunSwarm sessions: one load run owns the
	// swarm-worker image and pod names at a time.
	swarmMu sync.Mutex
	// activeSwarm is the pool of the RunSwarm session in flight, when
	// one is: chaos shard faults and the /readyz shard-health probe
	// address it. Guarded by mu (not swarmMu — readers must not block
	// on a running session).
	activeSwarm *swarm.Pool
	// heal ends the digi runtime's outage that a chaos disconnect
	// began (severRuntime). Guarded by mu.
	heal clock.Timer
	// podNode caches digi -> node placements for delay lookups.
	podNode sync.Map // name -> node name

	// clk drives the testbed's own poll loops (WaitConverged, test-case
	// deadlines, swarm waits) and is injected into every runtime
	// component, so one clock carries the whole testbed. It is
	// clock.System in real time and scaled under Options.TimeScale.
	clk clock.Clock
	// scaled is non-nil under Options.TimeScale; Start launches its
	// Drive loop and Stop ends it.
	scaled *clock.Scaled

	// scenMu guards the most recent RunScenario execution, surfaced
	// as the /ctl/status timewarp section.
	scenMu   sync.Mutex
	scenario *scenarioRun
}

// New assembles a testbed; call Start to bring it up.
func New(opts Options) (*Testbed, error) {
	if len(opts.Nodes) == 0 {
		opts.Nodes = []NodeSpec{{Name: "laptop", Capacity: 4096, Zone: "local"}}
	}
	if opts.GatewayZone == "" {
		opts.GatewayZone = opts.Nodes[0].Zone
	}
	if opts.BrokerAddr == "" {
		opts.BrokerAddr = "127.0.0.1:0"
	}
	if opts.RESTAddr == "" {
		opts.RESTAddr = "127.0.0.1:0"
	}
	if opts.ReadyTimeout <= 0 {
		opts.ReadyTimeout = 10 * time.Second
	}

	var clk clock.Clock = clock.System
	var scaled *clock.Scaled
	switch ts := opts.TimeScale; {
	case ts == 0 || ts == 1:
		// Real time: no pacing goroutine, System everywhere.
	case math.IsNaN(ts) || ts < 0:
		return nil, fmt.Errorf("core: invalid TimeScale %v", ts)
	default:
		scaled = clock.NewScaled(ts, nil)
		clk = scaled
	}

	tb := &Testbed{
		opts:     opts,
		Store:    model.NewStore(),
		Registry: digi.NewRegistry(),
		clk:      clk,
		scaled:   scaled,
	}
	// The trace log stamps scenario time, so records from a
	// compressed run carry the same timestamps a real-time run would.
	tb.Log = trace.NewLogAt(tb.clk.Now)
	tb.Obs = obs.NewRegistry()
	tb.Tracer = obs.NewTracer(tb.Obs)
	// Spans and bus events stamp scenario time (wall time rides
	// along as the bus's secondary wall_ms field).
	tb.Tracer.SetClock(tb.clk)
	tb.Version = obs.RegisterBuildInfo(tb.Obs)
	tb.Bus = obs.NewBus(tb.Obs, tb.clk)
	// Correlate completed spans into the trace log so shared and
	// replayed traces carry delivery-timing evidence (§3.5).
	log := tb.Log
	tb.Tracer.OnSpan(func(from, topic string, elapsed time.Duration) {
		log.Span(from, topic, elapsed)
	})
	tb.Runtime = &digi.Runtime{
		Store:    tb.Store,
		Log:      tb.Log,
		Registry: tb.Registry,
		Clock:    tb.clk,
	}
	tb.Runtime.BindObs(tb.Obs)
	tb.Cluster = kube.NewCluster()
	tb.Cluster.SetClock(tb.clk)
	tb.Cluster.BindMetrics(tb.Obs)
	tb.Cluster.RegisterImage("digi", tb.Runtime.ImageFactory())
	for _, n := range opts.Nodes {
		if err := tb.Cluster.AddNode(n.Name, n.Capacity, n.Zone); err != nil {
			return nil, err
		}
	}
	for _, zd := range opts.ZoneDelays {
		tb.Cluster.SetZoneDelay(zd.A, zd.B, zd.Delay)
	}
	tb.Checker = property.NewChecker(tb.Log, tb.clk)
	tb.Obs.GaugeFunc("digibox_models", "models in the store", func() float64 {
		return float64(len(tb.Store.List()))
	})
	tb.Obs.GaugeFunc("digibox_trace_records", "records in the trace log", func() float64 {
		return float64(tb.Log.Len())
	})
	tb.Obs.GaugeFunc("digibox_trace_bytes", "bytes the trace log's segments and index hold", func() float64 {
		return float64(tb.Log.Bytes())
	})
	tb.Obs.GaugeFunc("digibox_violations", "property violations recorded", func() float64 {
		return float64(tb.Checker.Count())
	})

	if opts.LocalRepoDir != "" {
		r, err := repo.Open(opts.LocalRepoDir)
		if err != nil {
			return nil, err
		}
		tb.localRepo = r
	}
	if opts.RemoteRepoDir != "" {
		r, err := repo.Open(opts.RemoteRepoDir)
		if err != nil {
			return nil, err
		}
		tb.remoteRepo = r
	}
	return tb, nil
}

// Start brings up the broker, cluster, gateway, and checker.
func (tb *Testbed) Start() error {
	tb.mu.Lock()
	if tb.started {
		tb.mu.Unlock()
		return nil
	}
	tb.started = true
	tb.startedAt = tb.clk.Now()
	tb.mu.Unlock()

	if tb.opts.BrokerAddr != "none" {
		tb.Broker = broker.NewBroker(&broker.Options{
			Obs:    tb.Obs,
			Tracer: tb.Tracer,
			Bus:    tb.Bus,
			Clock:  tb.clk,
		})
		if err := tb.Broker.ListenAndServe(tb.opts.BrokerAddr); err != nil {
			return fmt.Errorf("core: broker: %w", err)
		}
		tb.Runtime.Broker = tb.Broker
		if tb.opts.Observer {
			if err := tb.startObserver(); err != nil {
				return fmt.Errorf("core: observer: %w", err)
			}
		}
	}
	tb.Cluster.Start()
	tb.Cluster.BindBus(tb.Bus)
	if tb.opts.RESTAddr != "none" {
		tb.Gateway = &rest.Gateway{
			Store: tb.Store,
			Log:   tb.Log,
			Delay: tb.gatewayDelay,
			Clock: tb.clk,
		}
		if err := tb.Gateway.ListenAndServe(tb.opts.RESTAddr); err != nil {
			return fmt.Errorf("core: gateway: %w", err)
		}
	}
	tb.Checker.Start()
	// Under TimeScale the scaled clock gets its driver only once every
	// component is connected: timers armed during Start just pend.
	// Launching it earlier would let an unpaced clock (SpeedMax) churn
	// through hours of virtual time during the wall milliseconds the
	// broker dials and handshakes take.
	if tb.scaled != nil {
		go tb.scaled.Drive()
	}
	return nil
}

// startObserver dials the wildcard observer session. Its deliveries
// close publish→deliver spans; the received counter doubles as a
// delivery liveness signal.
func (tb *Testbed) startObserver() error {
	c, err := broker.Dial(tb.Broker.Addr(), &broker.ClientOptions{
		ClientID:      "dbox-observer",
		AutoReconnect: true,
		Clock:         tb.clk,
	})
	if err != nil {
		return err
	}
	received := tb.Obs.Counter("digibox_observer_received_total",
		"messages delivered to the wildcard observer session")
	if err := c.Subscribe("#", 1, func(broker.Message) {
		received.Inc()
	}); err != nil {
		c.Close()
		return err
	}
	tb.observer = c
	return nil
}

// gatewayDelay computes the simulated one-way delay from the gateway's
// zone to the node hosting the named digi's pod.
func (tb *Testbed) gatewayDelay(name string) time.Duration {
	nodeName, ok := tb.podNode.Load(name)
	if !ok {
		pod, err := tb.Cluster.GetPod(podName(name))
		if err != nil || pod.Status.NodeName == "" {
			return 0
		}
		nodeName = pod.Status.NodeName
		tb.podNode.Store(name, nodeName)
	}
	return tb.Cluster.ZoneDelay(tb.opts.GatewayZone, tb.Cluster.NodeZone(nodeName.(string)))
}

// Stop tears the testbed down. Safe to call more than once.
func (tb *Testbed) Stop() {
	tb.mu.Lock()
	if !tb.started || tb.stopped {
		tb.mu.Unlock()
		return
	}
	tb.stopped = true
	if tb.heal != nil {
		tb.heal.Stop()
	}
	tb.mu.Unlock()

	tb.Checker.Stop()
	if tb.Gateway != nil {
		tb.Gateway.Close()
	}
	tb.Cluster.Stop()
	if tb.observer != nil {
		tb.observer.Close()
	}
	if tb.Broker != nil {
		tb.Broker.Close()
	}
	tb.Bus.Close()
	if tb.scaled != nil {
		tb.scaled.Stop()
	}
}

// TimeScale returns the configured execution speed factor (1 for real
// time).
func (tb *Testbed) TimeScale() float64 {
	if tb.scaled == nil {
		return 1
	}
	return tb.scaled.Factor()
}

// Clock returns the testbed's time source: clock.System in real time,
// the scaled scenario clock under Options.TimeScale.
func (tb *Testbed) Clock() clock.Clock { return tb.clk }

// StartedAt returns when Start was called (zero before Start).
func (tb *Testbed) StartedAt() time.Time {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	return tb.startedAt
}

// Uptime is the elapsed time since Start (zero before Start).
func (tb *Testbed) Uptime() time.Duration {
	tb.mu.Lock()
	at := tb.startedAt
	tb.mu.Unlock()
	if at.IsZero() {
		return 0
	}
	return tb.clk.Since(at)
}

// BrokerAddr returns the MQTT listener address ("" if disabled).
func (tb *Testbed) BrokerAddr() string {
	if tb.Broker == nil {
		return ""
	}
	return tb.Broker.Addr()
}

// RESTAddr returns the REST gateway address ("" if disabled).
func (tb *Testbed) RESTAddr() string {
	if tb.Gateway == nil {
		return ""
	}
	return tb.Gateway.Addr()
}

// RESTClient returns a client bound to the gateway.
func (tb *Testbed) RESTClient() *rest.Client {
	return &rest.Client{Base: "http://" + tb.RESTAddr()}
}

// podName is the kube pod name of a digi instance.
func podName(digiName string) string {
	return "digi-" + strings.ToLower(digiName)
}

// Stats summarises testbed state for "dbox check" without arguments.
type Stats struct {
	Models      int
	PodsRunning int
	PodsPending int
	Violations  int
	TraceLen    int
	Broker      broker.Stats
}

// Stats returns a state snapshot computed from a single registry
// sweep: every family is read in one locked pass, so broker and
// cluster counts are mutually consistent even mid-chaos.
func (tb *Testbed) Stats() Stats {
	v := tb.Obs.Values()
	return Stats{
		Models:      int(v["digibox_models"]),
		PodsRunning: int(v["digibox_kube_pods_running"]),
		PodsPending: int(v["digibox_kube_pods_pending"]),
		Violations:  int(v["digibox_violations"]),
		TraceLen:    int(v["digibox_trace_records"]),
		Broker: broker.Stats{
			Connections:   int(v["digibox_broker_connections"]),
			Subscriptions: int(v["digibox_broker_subscriptions"]),
			Retained:      int(v["digibox_broker_retained"]),
			PublishesIn:   int64(v["digibox_broker_publishes_total"]),
			MessagesOut:   int64(v["digibox_broker_deliveries_total"]),
			Dropped:       int64(v["digibox_broker_dropped_total"]),
			Flushes:       int64(v["digibox_broker_flushes_total"]),
			FaultDrops:    int64(v["digibox_broker_fault_drops_total"]),
		},
	}
}

// Names returns all model names, sorted.
func (tb *Testbed) Names() []string {
	names := tb.Store.List()
	sort.Strings(names)
	return names
}
