package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
)

// SpanID identifies an in-flight publish→deliver span; 0 is invalid
// (not sampled, or tracing off).
type SpanID uint64

// spanSlots sizes the tracer's ring. A span lives from broker routing
// to the subscriber's socket write — microseconds to a few
// milliseconds — so the 512 in-flight spans each lane's share holds
// covers twice a session's outbound queue; an overwritten slot just
// loses that one sample (End finds a mismatched id and drops it).
const spanSlots = 4096

// laneSlots is each lane's share of the ring, one contiguous run, so
// two lanes' spans never share a slot's cache line.
const laneSlots = spanSlots / Lanes

// defaultSpanSampling traces one in N routed messages. Counters stay
// exact regardless (they are the broker's own atomics exposed at
// gather time); only the latency histograms are sampled, which keeps
// the per-message cost of the publish hot path under 5% while the
// quantiles remain statistically sound. SetSampleInterval(1) restores
// full tracing.
const defaultSpanSampling = 8

// Tracer stamps spans on messages at publish time and closes them at
// subscriber delivery, feeding per-digi and per-topic-class
// end-to-end latency histograms. A nil *Tracer is a no-op.
//
// Slots are a fixed ring indexed by span id; End is non-destructive
// so a fan-out of N subscribers yields N latency samples from one
// span. Every broker of a testbed or swarm pool shares one tracer, so
// what a span writes is its publish lane's (see Lanes): a span id
// encodes its lane, and the lane picks the id counter, the completed
// count, the slot run and the histogram stripe the span writes. An
// in-process delivery ends the span on the goroutine that opened it.
type Tracer struct {
	clk   clock.Clock
	every atomic.Uint64 // sample 1-in-every messages; >= 1

	byDigi  *HistogramVec
	byClass *HistogramVec

	onSpan atomic.Pointer[spanFunc]

	// cached With lookups for repeat label tuples, so End costs one
	// lock-free map read instead of a family-lock map access.
	digiH  sync.Map // publisher -> *Histogram
	classH sync.Map // topic class -> *Histogram

	// starts is Start's own count of calls, its sampling sequence.
	starts atomic.Uint64
	lanes  []tracerLane
	slots  [spanSlots]spanSlot
}

// tracerLane is one lane's span counts. A slice of them is allocated
// in a 64-byte multiple, which Go's size classes align to 64 bytes, so
// each lane's counts fill a cache line of their own.
type tracerLane struct {
	opened    atomic.Uint64 // spans opened; also the lane's id sequence
	completed atomic.Uint64 // delivery legs ended
	_         [48]byte
}

type spanFunc func(lane int, from, topic string, elapsed time.Duration)

type spanSlot struct {
	mu    sync.Mutex
	id    uint64
	from  string
	topic string
	start time.Time
}

// NewTracer wires a tracer into the registry. Returns nil when r is
// nil, so callers can pass the result around unconditionally.
func NewTracer(r *Registry) *Tracer {
	if r == nil {
		return nil
	}
	t := &Tracer{
		clk: clock.System,
		byDigi: r.HistogramVec("digibox_e2e_latency_seconds",
			"end-to-end publish→deliver MQTT latency by publisher (the digi or client that sent the message)", nil, "digi"),
		byClass: r.HistogramVec(E2ETopicLatencyName,
			"end-to-end publish→deliver MQTT latency by topic class", nil, "class"),
		lanes: make([]tracerLane, Lanes),
	}
	sum := func(pick func(*tracerLane) *atomic.Uint64) func() float64 {
		return func() float64 {
			var n uint64
			for i := range t.lanes {
				n += pick(&t.lanes[i]).Load()
			}
			return float64(n)
		}
	}
	r.CounterFunc("digibox_spans_started_total", "publish→deliver spans opened at broker routing",
		sum(func(l *tracerLane) *atomic.Uint64 { return &l.opened }))
	r.CounterFunc("digibox_spans_completed_total", "span closures observed at subscriber delivery (one per fan-out leg)",
		sum(func(l *tracerLane) *atomic.Uint64 { return &l.completed }))
	t.every.Store(defaultSpanSampling)
	return t
}

// SetClock points the tracer at the testbed clock, so span timestamps
// and latency samples advance on scenario time under time-compressed
// execution instead of leaking wall time. Call before the first span
// opens.
func (t *Tracer) SetClock(clk clock.Clock) {
	if t == nil || clk == nil {
		return
	}
	t.clk = clk
}

// SetSampleInterval makes the tracer open a span for one in every n
// routed messages (n < 1 is clamped to 1 = trace everything).
func (t *Tracer) SetSampleInterval(n uint64) {
	if t == nil {
		return
	}
	if n < 1 {
		n = 1
	}
	t.every.Store(n)
}

// OnSpan registers a callback invoked on every span closure, with the
// lane of the publish that opened the span — the hook core uses to
// correlate spans into trace.Log.
func (t *Tracer) OnSpan(fn func(lane int, from, topic string, elapsed time.Duration)) {
	if t == nil {
		return
	}
	if fn == nil {
		t.onSpan.Store(nil)
		return
	}
	f := spanFunc(fn)
	t.onSpan.Store(&f)
}

// Start opens a span for a message published by from (a digi name or
// wire client id; "" for anonymous in-process publishes) on topic,
// sampling on the tracer's own count of Start calls, on lane 0.
// Returns the id to stamp on the outbound message copies, or 0 when
// this message falls outside the sampling interval.
func (t *Tracer) Start(from, topic string) SpanID {
	if t == nil {
		return 0
	}
	return t.StartSeq(0, t.starts.Add(1), from, topic)
}

// StartSeq is Start for the seq-th message a broker routed on lane
// (seq counts from 1): it samples on the broker's own per-lane
// sequence, so a message outside the interval writes nothing, and a
// sampled one writes only lane's counts and slots. The lane's n-th span
// has id n*Lanes+lane, which keeps ids unique across lanes and brokers.
func (t *Tracer) StartSeq(lane int, seq uint64, from, topic string) SpanID {
	if t == nil || seq%t.every.Load() != 0 {
		return 0
	}
	n := t.lanes[lane].opened.Add(1)
	id := n*Lanes + uint64(lane)
	s := t.slot(id)
	now := t.clk.Now()
	s.mu.Lock()
	s.id, s.from, s.topic, s.start = id, from, topic, now
	s.mu.Unlock()
	return SpanID(id)
}

// slot returns span id's slot: its lane's run, indexed by its number
// within the lane.
func (t *Tracer) slot(id uint64) *spanSlot {
	return &t.slots[id%Lanes*laneSlots+id/Lanes%laneSlots]
}

// End closes one delivery leg of a span, observing the elapsed time
// into the latency histograms' stripe of the span's lane. Safe to call
// multiple times for the same id (once per subscriber); a stale or
// overwritten id is silently dropped.
func (t *Tracer) End(id SpanID) {
	if t == nil || id == 0 {
		return
	}
	s := t.slot(uint64(id))
	s.mu.Lock()
	if s.id != uint64(id) {
		s.mu.Unlock()
		return
	}
	from, topic, start := s.from, s.topic, s.start
	s.mu.Unlock()
	elapsed := t.clk.Since(start)

	lane := int(uint64(id) % Lanes)
	sec := elapsed.Seconds()
	t.digiHist(from).observeLane(lane, sec)
	t.classHist(TopicClass(topic)).observeLane(lane, sec)
	t.lanes[lane].completed.Add(1)

	if fn := t.onSpan.Load(); fn != nil {
		(*fn)(lane, from, topic, elapsed)
	}
}

func (t *Tracer) digiHist(from string) *Histogram {
	if from == "" {
		from = "(app)" // anonymous in-process publisher
	}
	return cachedWith(&t.digiH, t.byDigi, from)
}

func (t *Tracer) classHist(class string) *Histogram {
	return cachedWith(&t.classH, t.byClass, class)
}

// cachedWith returns vec's child for label through cache.
func cachedWith(cache *sync.Map, vec *HistogramVec, label string) *Histogram {
	if h, ok := cache.Load(label); ok {
		return h.(*Histogram)
	}
	h, _ := cache.LoadOrStore(label, vec.With(label))
	return h.(*Histogram)
}
