package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
)

// Event is one item on the fan-out bus: a monotonically increasing
// sequence number, a bus-clock timestamp, a kind tag ("fault",
// "shard", "pod", "client", "metrics", "latency"), and a small
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

	stop     chan struct{}
	samplers sync.WaitGroup
}

// Sub is one bus subscription with a bounded buffer.
type Sub struct {
	bus     *Bus
	c       chan Event
	dropped atomic.Uint64
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
		stop:      make(chan struct{}),
	}
}

// Publish stamps and fans an event out to every subscriber,
// non-blocking: a full subscriber buffer sheds the event for that
// subscriber and advances its drop counter.
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
			s.dropped.Add(1)
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

// Dropped reports how many events were shed for this subscriber.
func (s *Sub) Dropped() uint64 { return s.dropped.Load() }

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

// Close stops samplers, detaches every subscriber (closing their
// channels), and makes further publishes no-ops.
func (b *Bus) Close() {
	if b == nil {
		return
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	b.mu.Unlock()
	close(b.stop)
	b.samplers.Wait()
	b.mu.Lock()
	defer b.mu.Unlock()
	for s := range b.subs {
		close(s.c)
	}
	b.subs = map[*Sub]struct{}{}
}

// SampleMetrics starts a sampler goroutine that every interval
// publishes a "metrics" event carrying the registry values that
// changed since the previous tick (name -> new value), and — when
// e2e spans have landed — a "latency" event with per-topic-class
// p50/p99 derived from the span tracer's shared histogram family.
// The sampler stops when the bus closes.
func (b *Bus) SampleMetrics(reg *Registry, interval time.Duration) {
	if b == nil || reg == nil || interval <= 0 {
		return
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.samplers.Add(1)
	b.mu.Unlock()
	go func() {
		defer b.samplers.Done()
		t := b.clk.NewTicker(interval)
		defer t.Stop()
		// The bus's own counters advance whenever the sampler itself
		// publishes; including them in the delta would make every tick
		// dirty and the stream self-perpetuating.
		selfNames := map[string]bool{
			"digibox_events_published_total": true,
			"digibox_events_dropped_total":   true,
		}
		prev := map[string]float64{}
		var prevSpans uint64
		for {
			select {
			case <-b.stop:
				return
			case <-t.C():
			}
			cur := reg.Values()
			changed := map[string]any{}
			for name, v := range cur {
				if !selfNames[name] && v != prev[name] {
					changed[name] = v
				}
			}
			prev = cur
			if len(changed) > 0 {
				b.Publish("metrics", map[string]any{"values": changed})
			}
			classes, total := reg.LatencyClasses()
			if total != prevSpans && len(classes) > 0 {
				prevSpans = total
				b.Publish("latency", map[string]any{"classes": classes})
			}
		}
	}()
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
		counts := snapshotHist(c, f.bounds)
		n := c.count.Load()
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
