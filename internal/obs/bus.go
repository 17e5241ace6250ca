package obs

import (
	"sort"
	"sync"

	"repro/internal/clock"
)

// Event is one item on the fan-out bus: a monotonically increasing
// sequence number, a bus-clock timestamp, a kind tag ("fault",
// "shard", "pod", "client"), and a small
// JSON-serialisable payload.
//
// AtMs is scenario time (the injected bus clock), so events line up
// with trace records and spans under time-compressed execution; WallMs
// is the secondary wall-clock stamp for correlating with logs outside
// the testbed. On a real-time bus the two agree.
type Event struct {
	Seq    uint64         `json:"seq"`
	AtMs   int64          `json:"at_ms"`
	WallMs int64          `json:"wall_ms"`
	Kind   string         `json:"kind"`
	Data   map[string]any `json:"data,omitempty"`
}

// Bus is a bounded fan-out event bus. Publishers (broker, chaos
// engine, swarm pool failover, kube node agents) call Publish;
// consumers call Subscribe and read from the returned Sub's channel.
//
// Backpressure contract, mirroring the swarm pend journal: every
// subscriber owns a bounded buffer, Publish never blocks, and when a
// subscriber's buffer is full the event is shed for that subscriber
// only and a monotonic drop counter advances. A slow SSE consumer can
// therefore never stall the broker's hot path or starve its peers.
//
// All methods are nil-receiver-safe so subsystems publish
// unconditionally and a nil *Bus collapses the layer to no-ops.
type Bus struct {
	clk       clock.Clock
	published *Counter
	dropped   *Counter

	mu     sync.Mutex
	seq    uint64
	subs   map[*Sub]struct{}
	closed bool
}

// Sub is one bus subscription with a bounded buffer.
type Sub struct {
	bus *Bus
	c   chan Event
}

// NewBus returns a bus stamping events from clk (nil means the system
// clock) and counting publishes/sheds into reg (nil disables metrics,
// not the bus).
func NewBus(reg *Registry, clk clock.Clock) *Bus {
	return &Bus{
		clk:       clock.Or(clk),
		published: reg.Counter("digibox_events_published_total", "Events published onto the fan-out bus."),
		dropped:   reg.Counter("digibox_events_dropped_total", "Events shed because a subscriber's bounded buffer was full."),
		subs:      map[*Sub]struct{}{},
	}
}

// Publish stamps and fans an event out to every subscriber,
// non-blocking: a full subscriber buffer sheds the event for that
// subscriber and advances the bus's drop counter.
func (b *Bus) Publish(kind string, data map[string]any) {
	if b == nil {
		return
	}
	now := b.clk.Now().UnixMilli()
	wall := clock.System.Now().UnixMilli()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.seq++
	ev := Event{Seq: b.seq, AtMs: now, WallMs: wall, Kind: kind, Data: data}
	b.published.Inc()
	for s := range b.subs {
		select {
		case s.c <- ev:
		default:
			b.dropped.Inc()
		}
	}
}

// Subscribe registers a consumer with a bounded buffer of the given
// size (minimum 1). On a closed (or nil) bus the returned Sub's
// channel is already closed, so consumers uniformly range to EOF.
func (b *Bus) Subscribe(buffer int) *Sub {
	if buffer < 1 {
		buffer = 1
	}
	s := &Sub{bus: b, c: make(chan Event, buffer)}
	if b == nil {
		close(s.c)
		return s
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		close(s.c)
		return s
	}
	b.subs[s] = struct{}{}
	return s
}

// C is the subscription's event channel; it closes when the Sub or
// the bus closes.
func (s *Sub) C() <-chan Event { return s.c }

// Close detaches the subscription and closes its channel. Safe to
// call more than once; publishes after Close are simply not seen.
func (s *Sub) Close() {
	if s == nil || s.bus == nil {
		return
	}
	b := s.bus
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.subs[s]; ok {
		delete(b.subs, s)
		close(s.c)
	}
}

// Subscribers reports the current number of attached consumers.
func (b *Bus) Subscribers() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// Close detaches every subscriber (closing their channels) and makes
// further publishes no-ops.
func (b *Bus) Close() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for s := range b.subs {
		close(s.c)
	}
	b.subs = map[*Sub]struct{}{}
}

// LatencyClass is one topic class's e2e latency summary.
type LatencyClass struct {
	Class string  `json:"class"`
	Count uint64  `json:"count"`
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
}

// LatencyClasses summarises the span tracer's per-topic-class e2e
// latency family (E2ETopicLatencyName) into sorted p50/p99 rows plus
// the total observation count across classes.
func (r *Registry) LatencyClasses() ([]LatencyClass, uint64) {
	if r == nil {
		return nil, 0
	}
	r.mu.Lock()
	f, ok := r.families[E2ETopicLatencyName]
	r.mu.Unlock()
	if !ok || f.kind != KindHistogram {
		return nil, 0
	}
	f.mu.Lock()
	kids := make(map[string]*child, len(f.kids))
	for k, c := range f.kids {
		kids[k] = c
	}
	f.mu.Unlock()
	var out []LatencyClass
	var total uint64
	for _, c := range kids {
		counts := c.histCounts()
		n := c.histCount()
		total += n
		class := ""
		if len(c.labelVals) > 0 {
			class = c.labelVals[0]
		}
		out = append(out, LatencyClass{
			Class: class,
			Count: n,
			P50Ms: quantile(counts, f.bounds, 0.50) * 1e3,
			P99Ms: quantile(counts, f.bounds, 0.99) * 1e3,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out, total
}
