// Package digi implements the digi runtime: the execution substrate
// that runs each mock and scene controller as a small reconciler, the
// role dSpace plays in the paper's deployment (§4).
//
// A Kind bundles a model schema with two handlers mirroring the dbox
// Python library of Fig. 4/5:
//
//   - Loop is the event generator (the @dbox.loop handler). It runs
//     periodically while the model is managed and writes a draft of
//     the digi's own model; the runtime commits the draft's changes
//     and logs them as an event.
//   - Sim is the simulation handler (the @on.model handler). It runs
//     whenever the digi's own model — or, for scenes, an attached
//     child's model — changes. Mocks use it to derive status from
//     intent and publish messages; scenes use it to coordinate the
//     models of attached mocks and sub-scenes (ensemble support).
//
// Sim handlers must be convergent: a burst of foreign writes
// re-triggers Sim at least once after the last of them, not once per
// write, and a scene's own child writes trigger nothing — the live
// reconciler commits them through its store watcher, so they are never
// delivered back to it. Reconcilers are level-triggered, so a handler
// must derive everything from the models it is handed, never from how
// often it ran. A second run over the state a run just wrote must
// change nothing: that is why the reconciler need not see its own child
// writes. The fixpoint is reached when a run produces no further
// changes (the model store suppresses no-op commits, which guarantees
// termination for idempotent handlers).
package digi

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/broker"
	"repro/internal/clock"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/trace"
)

// Atts groups drafts of the attached digis' models by kind then name,
// the argument shape of scene simulation handlers in Fig. 5
// (atts.get("Occupancy", {})). Handlers may write the drafts; the
// runtime commits each draft's changes to its model.
type Atts map[string]map[string]*model.Draft

// Get returns the attached models of one kind (possibly nil).
func (a Atts) Get(kind string) map[string]*model.Draft { return a[kind] }

// Names returns the attached instance names of one kind, sorted.
func (a Atts) Names(kind string) []string {
	m := a[kind]
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// LoopFunc is an event-generator handler. It writes work, a draft of
// the digi's own model; the runtime commits the draft's changes.
type LoopFunc func(c *Ctx, work *model.Draft) error

// SimFunc is a simulation handler. It writes work and the drafts in
// atts; the runtime commits each draft's changes. The committed
// documents the drafts read through stay as they were. A draft is
// valid only during the call: the runtime reuses work for the next one,
// so a handler keeps no draft past its return. atts is nil when the
// digi has no attached children, and a handler only reads it.
type SimFunc func(c *Ctx, work *model.Draft, atts Atts) error

// Kind defines a mock or scene type: its model schema plus behaviour.
type Kind struct {
	Schema *model.Schema
	// DefaultInterval is the Loop period when the model's meta config
	// does not override it with interval_ms. Zero means 500ms.
	DefaultInterval time.Duration
	Loop            LoopFunc
	Sim             SimFunc
}

// Scene reports whether this kind is a scene controller.
func (k *Kind) Scene() bool { return k.Schema != nil && k.Schema.Scene }

// Type returns the kind's type name.
//
//dbox:allow deadcode -- the device, scene and core tests name kinds with it
func (k *Kind) Type() string {
	if k.Schema == nil {
		return ""
	}
	return k.Schema.Type
}

// Registry maps type names to Kinds. Safe for concurrent use.
type Registry struct {
	mu    sync.RWMutex
	kinds map[string]*Kind
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{kinds: map[string]*Kind{}}
}

// Register installs a kind; re-registering a type replaces it (that is
// what "dbox commit <type>" does to update a kind).
func (r *Registry) Register(k *Kind) error {
	if k.Schema == nil || k.Schema.Type == "" {
		return fmt.Errorf("digi: kind needs a schema with a type")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.kinds[k.Schema.Type] = k
	return nil
}

// Get looks a kind up by type name.
func (r *Registry) Get(typ string) (*Kind, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	k, ok := r.kinds[typ]
	return k, ok
}

// Types returns all registered type names, sorted.
//
//dbox:allow deadcode -- the root facade, device and scene tests list kinds with it
func (r *Registry) Types() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.kinds))
	for t := range r.kinds {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Runtime carries the shared substrate every digi runs against.
type Runtime struct {
	Store    *model.Store
	Log      *trace.Log
	Registry *Registry
	// Broker, when non-nil, receives mock status publishes in-process.
	Broker *broker.Broker
	// Clock is the time source for reconciler tickers, handler sleeps,
	// gap timing, and commit latency. Nil means the wall clock; the
	// deterministic replay engine steps its own virtual clock instead
	// of running reconcilers at all.
	Clock clock.Clock

	readyMu sync.Mutex
	ready   map[string]*readiness
	incs    uint64 // the last incarnation Expect handed out

	// Status-publish path state, with no runtime-wide lock. lastStatus
	// (topic → *statusSlot) keeps each topic's latest retained status
	// so state is re-established after an outage; severed is set while
	// Sever has cut the runtime off the broker. pubMu orders Sever and
	// Heal only.
	lastStatus sync.Map
	severed    atomic.Bool
	pubMu      sync.Mutex
	gapStart   time.Time

	// metrics is the bound instrument bundle (nil = unobserved).
	metrics atomic.Pointer[runtimeMetrics]
}

// runtimeMetrics bundles the runtime's instrument handles.
type runtimeMetrics struct {
	events    *obs.CounterVec // event-generator firings by digi
	publishes *obs.CounterVec // status publishes by digi
	commits   *obs.Histogram  // model-commit latency
	coalesced *obs.Counter    // updates an earlier Simulate already covered
	gaps      *obs.Counter    // broker-session outages
	recovered *obs.Counter    // shared faults-recovered family, via=reconnect
	gapDur    *obs.Histogram  // outage duration
}

// BindObs wires the runtime's instruments into r. Bind it before
// starting digis: each resolves its per-digi counters once, when its
// Stepper is built. The recovered counter joins the registry-wide
// faults-recovered family (shared with the chaos engine's revert
// counter) under via="reconnect", so a forced disconnect that Heal
// ends counts as a recovered fault.
func (rt *Runtime) BindObs(r *obs.Registry) {
	if r == nil {
		return
	}
	rt.metrics.Store(&runtimeMetrics{
		events: r.CounterVec("digibox_digi_events_total",
			"event-generator firings (Loop events and scene coordination)", "digi"),
		publishes: r.CounterVec("digibox_digi_publishes_total",
			"status messages published", "digi"),
		commits: r.Histogram("digibox_digi_commit_seconds",
			"model-commit latency (diff apply through the store)", nil),
		coalesced: r.Counter("digibox_digi_updates_coalesced_total",
			"watch updates whose Simulate was skipped because an earlier run had already read them"),
		gaps: r.Counter("digibox_runtime_gaps_total",
			"broker-session outages observed by the digi runtime"),
		recovered: r.CounterVec(obs.FaultsRecoveredName,
			"faults recovered (chaos reverts and runtime reconnects)", "via").With("reconnect"),
		gapDur: r.Histogram("digibox_runtime_gap_seconds",
			"broker-session outage duration (disconnect → reconnect)", nil),
	})
}

// Sever cuts the runtime off the broker, as a dropped connection
// would: digis keep simulating, their statuses reach only the
// latest-status table, and one gap marker is logged. It reports false,
// changing nothing, while an outage is already under way.
func (rt *Runtime) Sever(cause error) bool {
	rt.pubMu.Lock()
	if rt.severed.Load() {
		rt.pubMu.Unlock()
		return false
	}
	rt.severed.Store(true)
	rt.gapStart = rt.clk().Now()
	rt.pubMu.Unlock()
	if m := rt.metrics.Load(); m != nil {
		m.gaps.Inc()
	}
	rt.Log.Fault("runtime", "broker-gap", cause.Error(), nil)
	return true
}

// Heal ends the outage Sever began and republishes the latest retained
// status of every topic under its publisher's name, so the broker's
// retained store is correct even if it restarted and lost it.
func (rt *Runtime) Heal() {
	rt.pubMu.Lock()
	if !rt.severed.Load() {
		rt.pubMu.Unlock()
		return
	}
	rt.severed.Store(false)
	gapStart := rt.gapStart
	rt.pubMu.Unlock()
	var topics []string
	rt.lastStatus.Range(func(topic, _ any) bool {
		topics = append(topics, topic.(string))
		return true
	})
	sort.Strings(topics)
	if m := rt.metrics.Load(); m != nil {
		m.recovered.Inc()
		m.gapDur.Observe(rt.clk().Since(gapStart).Seconds())
	}
	rt.Log.Fault("runtime", "broker-recover",
		fmt.Sprintf("reconnected; republishing %d retained status topics", len(topics)), nil)
	for _, topic := range topics {
		v, _ := rt.lastStatus.Load(topic)
		slot := v.(*statusSlot)
		slot.mu.Lock()
		from, payload := slot.from, slot.payload
		slot.mu.Unlock()
		rt.Broker.PublishQoS(from, topic, payload, 1, true)
	}
}

// statusSlot holds one topic's latest status payload and the digi that
// published it; only the digis publishing on the topic contend for
// its lock.
type statusSlot struct {
	mu      sync.Mutex
	from    string
	payload []byte
}

// publishStatus sends one retained QoS 1 status message to the broker
// unless the runtime is severed. from carries the publishing digi's
// identity into the broker's partition/fault scoping.
func (rt *Runtime) publishStatus(from, topic string, payload []byte) error {
	v, ok := rt.lastStatus.Load(topic)
	if !ok {
		v, _ = rt.lastStatus.LoadOrStore(topic, &statusSlot{})
	}
	slot := v.(*statusSlot)
	slot.mu.Lock()
	slot.from, slot.payload = from, payload
	slot.mu.Unlock()
	if rt.Broker == nil || rt.severed.Load() {
		return nil
	}
	return rt.Broker.PublishQoS(from, topic, payload, 1, true)
}

// readiness latches "the reconciler is watching its model" for one
// digi. inc is the incarnation allowed to close ch; 0 lets any
// reconciler of the name close it.
type readiness struct {
	inc uint64
	ch  chan struct{}
}

// slot returns the named digi's readiness, opening one if there is
// none. Called with readyMu held.
func (rt *Runtime) slot(name string) *readiness {
	if rt.ready == nil {
		rt.ready = map[string]*readiness{}
	}
	r := rt.ready[name]
	if r == nil {
		r = &readiness{ch: make(chan struct{})}
		rt.ready[name] = r
	}
	return r
}

// Expect starts a new incarnation of the named digi and returns its
// number, which the pod env carries under "incarnation" (see
// ImageFactory). From then on only that incarnation's reconciler can
// satisfy WaitReady(name): one left over from an earlier incarnation
// cannot.
func (rt *Runtime) Expect(name string) uint64 {
	rt.readyMu.Lock()
	defer rt.readyMu.Unlock()
	rt.incs++
	r := rt.slot(name)
	select {
	case <-r.ch:
		// Latched by an earlier incarnation: start over.
		r = &readiness{ch: make(chan struct{})}
		rt.ready[name] = r
	default:
		// Still open: keep it for whoever is already waiting.
	}
	r.inc = rt.incs
	return r.inc
}

// Forget drops the named digi's readiness once it is stopped:
// WaitReady(name) waits again, for a later incarnation.
func (rt *Runtime) Forget(name string) {
	rt.readyMu.Lock()
	delete(rt.ready, name)
	rt.readyMu.Unlock()
}

// markReady latches readiness for incarnation inc of name. A stale
// incarnation marks nothing, not even a slot of its own.
func (rt *Runtime) markReady(name string, inc uint64) {
	rt.readyMu.Lock()
	defer rt.readyMu.Unlock()
	if r := rt.ready[name]; inc != 0 && (r == nil || r.inc != inc) {
		return
	}
	r := rt.slot(name)
	select {
	case <-r.ch:
		// already ready (digi restart)
	default:
		close(r.ch)
	}
}

// readyGrace is WaitReady's wall-clock grace (see clock.Deadline): what
// the host may take to run the scheduler → node agent → reconciler
// goroutine chain after the scenario timeout has expired.
const readyGrace = 2 * time.Second

// WaitReady blocks until the named digi's reconciler is watching its
// model (so no subsequent update can be missed), or the timeout
// elapses. Testbeds use this between starting a digi and driving it.
func (rt *Runtime) WaitReady(name string, timeout time.Duration) error {
	d := clock.NewDeadline(rt.clk(), timeout, readyGrace)
	defer d.Stop()
	rt.readyMu.Lock()
	ready := rt.slot(name).ch
	rt.readyMu.Unlock()
	select {
	case <-ready:
		return nil
	case <-d.Done():
		return fmt.Errorf("digi: %s not ready after %v", name, timeout)
	}
}

// clk returns the runtime's clock, defaulting to the wall clock.
func (rt *Runtime) clk() clock.Clock { return clock.Or(rt.Clock) }

// statusTopic is a digi's default status topic.
func statusTopic(name string) string {
	return "digibox/" + name + "/status"
}

// Ctx is the handler-visible context of one digi instance.
type Ctx struct {
	Name string
	Type string
	// Rand is seeded from meta config "seed" (or the instance name) so
	// runs are reproducible.
	Rand rng.Stream

	rt   *Runtime
	kind *Kind
	ctx  context.Context
	// Resolved once: the default status topic and this digi's per-digi
	// counters (nil = unobserved).
	topic             string
	events, publishes *obs.Counter
}

// Config reads a meta config value from the digi's current model. A
// composite value is part of the committed document: read-only.
func (c *Ctx) Config(key string) (any, bool) {
	doc, _, ok := c.rt.Store.View(c.Name)
	if !ok {
		return nil, false
	}
	return doc.Get("meta." + key)
}

// ConfigFloat reads a float meta config value with a default.
func (c *Ctx) ConfigFloat(key string, def float64) float64 {
	v, ok := c.Config(key)
	if !ok {
		return def
	}
	switch t := v.(type) {
	case float64:
		return t
	case int64:
		return float64(t)
	}
	return def
}

// ConfigInt reads an int meta config value with a default.
func (c *Ctx) ConfigInt(key string, def int64) int64 {
	v, ok := c.Config(key)
	if !ok {
		return def
	}
	switch t := v.(type) {
	case int64:
		return t
	case float64:
		return int64(t)
	}
	return def
}

// ConfigBool reads a bool meta config value with a default.
func (c *Ctx) ConfigBool(key string, def bool) bool {
	v, ok := c.Config(key)
	if !ok {
		return def
	}
	b, ok := v.(bool)
	if !ok {
		return def
	}
	return b
}

// ConfigDuration reads a "<key>_ms" meta config value as a duration.
func (c *Ctx) ConfigDuration(key string, def time.Duration) time.Duration {
	ms := c.ConfigInt(key+"_ms", -1)
	if ms < 0 {
		return def
	}
	return time.Duration(ms) * time.Millisecond
}

// ActuationDelay returns the simulated device actuation latency
// (meta config actuation_delay_ms; §6 "hardware intricacies").
func (c *Ctx) ActuationDelay() time.Duration {
	return c.ConfigDuration("actuation_delay", 0)
}

// Sleep pauses for d or until the digi stops, reporting whether the
// full duration elapsed.
func (c *Ctx) Sleep(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	clk := c.rt.clk()
	return clock.SleepUntil(c.ctx, clk, clk.Now().Add(d)) == nil
}

// PublishFields sends a status message to the broker on the digi's
// topic and logs it. The topic is the meta config "topic" override if
// set, else digibox/<name>/status. The payload is what json.Marshal
// makes of a map of the named top-level fields work holds (appendObject).
func (c *Ctx) PublishFields(work *model.Draft, names ...string) error {
	var fb [8]field
	fs := fb[:0]
	for _, name := range names {
		if slices.ContainsFunc(fs, func(f field) bool { return f.key == name }) {
			continue
		}
		if v, ok := work.Get(name); ok {
			fs = append(fs, field{name, v})
		}
	}
	var buf [256]byte
	enc, err := appendObject(buf[:0], fs)
	return c.publish(bytes.Clone(enc), err)
}

// publish logs payload and sends it, or reports err, an encoding
// failure. payload is not written after.
func (c *Ctx) publish(payload []byte, err error) error {
	if err != nil {
		return fmt.Errorf("digi: publish %s: %w", c.Name, err)
	}
	topic := c.topic
	if v, ok := c.Config("topic"); ok {
		if s, ok := v.(string); ok && s != "" {
			topic = s
		}
	}
	// Message keeps no reference to its payload, so it reads the bytes
	// in place rather than a copy.
	c.rt.Log.Message(c.Name, topic, unsafe.String(unsafe.SliceData(payload), len(payload)), "send")
	c.publishes.Inc()
	return c.rt.publishStatus(c.Name, topic, payload)
}

// FaultMode returns the injected device fault mode ("", "stuck",
// "dropout", or "outlier"; chaos engine, meta config "fault").
func (c *Ctx) FaultMode() string {
	v, ok := c.Config("fault")
	if !ok {
		return ""
	}
	s, _ := v.(string)
	return s
}

// NewTestCtx builds a handler context directly, without a running
// reconciler. It exists so kind libraries (device, scene) can unit-test
// their Loop/Sim handlers in isolation.
//
//dbox:allow deadcode -- the device and scene tests build handler contexts with it
func NewTestCtx(name, typ string, rt *Runtime, rnd rng.Stream, ctx context.Context) *Ctx {
	return &Ctx{Name: name, Type: typ, Rand: rnd, rt: rt, ctx: ctx, topic: statusTopic(name)}
}
