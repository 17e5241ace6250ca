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
// milliseconds — so 4096 in-flight spans covers far beyond the
// broker's per-session queue depth; an overwritten slot just loses
// that one sample (End finds a mismatched id and drops it).
const spanSlots = 4096

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
// the fields each routed message reads sit apart from ids, which
// StartSeq writes only for a sampled message.
type Tracer struct {
	clk   clock.Clock
	every atomic.Uint64 // sample 1-in-every messages; >= 1

	started   *Counter
	completed *Counter
	byDigi    *HistogramVec
	byClass   *HistogramVec

	onSpan atomic.Pointer[spanFunc]

	// cached With lookups for repeat label tuples, so End costs one
	// lock-free map read instead of a family-lock map access.
	digiH  sync.Map // publisher -> *Histogram
	classH sync.Map // topic class -> *Histogram

	_     [64]byte
	ids   atomic.Uint64
	_     [56]byte
	slots [spanSlots]spanSlot
}

type spanFunc func(from, topic string, elapsed time.Duration)

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
		clk:       clock.System,
		started:   r.Counter("digibox_spans_started_total", "publish→deliver spans opened at broker routing"),
		completed: r.Counter("digibox_spans_completed_total", "span closures observed at subscriber delivery (one per fan-out leg)"),
		byDigi: r.HistogramVec("digibox_e2e_latency_seconds",
			"end-to-end publish→deliver MQTT latency by publisher (the digi or client that sent the message)", nil, "digi"),
		byClass: r.HistogramVec(E2ETopicLatencyName,
			"end-to-end publish→deliver MQTT latency by topic class", nil, "class"),
	}
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

// OnSpan registers a callback invoked on every span closure — the
// hook core uses to correlate spans into trace.Log.
func (t *Tracer) OnSpan(fn func(from, topic string, elapsed time.Duration)) {
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
// sampling on the tracer's own count of Start calls. Returns the id to
// stamp on the outbound message copies, or 0 when this message falls
// outside the sampling interval.
func (t *Tracer) Start(from, topic string) SpanID {
	if t == nil {
		return 0
	}
	id := t.ids.Add(1)
	if id%t.every.Load() != 0 {
		return 0
	}
	return t.open(id, from, topic)
}

// StartSeq is Start for the seq-th message a broker routed (seq counts
// from 1): it samples on the broker's own sequence, so a message
// outside the interval writes nothing the tracer's other brokers
// write. Only a sampled message draws a span id from the shared
// counter, which keeps ids unique across brokers.
func (t *Tracer) StartSeq(seq uint64, from, topic string) SpanID {
	if t == nil || seq%t.every.Load() != 0 {
		return 0
	}
	return t.open(t.ids.Add(1), from, topic)
}

// open stamps span id's slot.
func (t *Tracer) open(id uint64, from, topic string) SpanID {
	s := &t.slots[id%spanSlots]
	now := t.clk.Now()
	s.mu.Lock()
	s.id, s.from, s.topic, s.start = id, from, topic, now
	s.mu.Unlock()
	t.started.Inc()
	return SpanID(id)
}

// End closes one delivery leg of a span, observing the elapsed time
// into the latency histograms. Safe to call multiple times for the
// same id (once per subscriber); a stale or overwritten id is
// silently dropped.
func (t *Tracer) End(id SpanID) {
	if t == nil || id == 0 {
		return
	}
	s := &t.slots[uint64(id)%spanSlots]
	s.mu.Lock()
	if s.id != uint64(id) {
		s.mu.Unlock()
		return
	}
	from, topic, start := s.from, s.topic, s.start
	s.mu.Unlock()
	elapsed := t.clk.Since(start)

	sec := elapsed.Seconds()
	t.digiHist(from).Observe(sec)
	t.classHist(TopicClass(topic)).Observe(sec)
	t.completed.Inc()

	if fn := t.onSpan.Load(); fn != nil {
		(*fn)(from, topic, elapsed)
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
