package swarm

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/broker"
	"repro/internal/clock"
	"repro/internal/obs"
)

// loadFrom is the publisher identity every generated message carries.
// A constant — not the device name — so the tracer's per-digi latency
// family gets one "swarm-load" child instead of 10k device children.
const loadFrom = "swarm-load"

// Session is one swarm load run against a pool: it anchors the
// consuming subscribers, paces the generator, and settles the exact
// message accounting into a Report. Create with NewSession, drive
// every worker with RunWorker (concurrently, one per pod or
// goroutine), then call Finish.
type Session struct {
	pool *Pool
	spec LoadSpec
	gen  *Generator
	reg  *obs.Registry
	clk  clock.Clock
	// topics is each device's status topic, built once, so a publish
	// indexes it instead of formatting one.
	topics []string

	delivered int64
}

// NewSession defaults and validates spec, subscribes the consumers,
// and prepares the generator, whose messages publish through the pool
// at the spec's QoS.
func NewSession(pool *Pool, spec LoadSpec, reg *obs.Registry) (*Session, error) {
	s := &Session{pool: pool, reg: reg, clk: clock.System}
	gen, err := NewGenerator(spec, s.firePool)
	if err != nil {
		return nil, err
	}
	// The generator's spec is defaulted, and its device count is what
	// the sampler actually compiled.
	s.gen, s.spec = gen, gen.Spec()
	s.topics = make([]string, s.spec.Devices)
	for d := range s.topics {
		s.topics[d] = gen.Sampler().DeviceTopic(s.spec.Prefix, d)
	}
	// Consumers: each holds one wildcard filter matching every device
	// topic, anchored on the shard its client id hashes to — so with
	// multiple subscribers the bridge's cross-shard path is exercised
	// by construction.
	filter := s.spec.Prefix + "/+/status"
	for k := 0; k < s.spec.Subs; k++ {
		id := fmt.Sprintf("swarm-sub-%d", k)
		if err := pool.Subscribe(id, filter, s.spec.QoS, func(broker.Message) {
			atomic.AddInt64(&s.delivered, 1)
		}); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// SetClock replaces the session's clock (and its generator's pacing
// clock). Call before RunWorker.
func (s *Session) SetClock(c clock.Clock) {
	s.clk = clock.Or(c)
	s.gen.SetClock(c)
}

// SetTap registers a publish-side observer: tap sees every message
// just before it is published, with its topic and the scenario offset
// the sampler scheduled it at. The offset is schedule arithmetic, not a
// clock read, so it is the same at any speed and under any scheduling.
// tap runs on the generator workers and must be safe for concurrent
// use. Call before RunWorker.
func (s *Session) SetTap(tap func(at time.Duration, topic string, payload []byte)) {
	s.gen.tap = func(at time.Duration, device int, payload []byte) {
		tap(at, s.topics[device], payload)
	}
}

// firePool publishes a sampled payload on the sampler's per-kind
// device topic.
func (s *Session) firePool(device int, _ uint64, payload []byte) {
	// Non-retained: load traffic must not trigger the bridge's
	// retained full-replication path.
	s.pool.Publish(loadFrom, s.topics[device], payload, s.spec.QoS, false)
}

// Workers returns the worker count; RunWorker accepts 0..Workers-1.
func (s *Session) Workers() int { return s.gen.Workers() }

// RunWorker drives one generator worker to completion.
func (s *Session) RunWorker(ctx context.Context, w int) error {
	return s.gen.RunWorker(ctx, w)
}

// Finish waits (bounded by quiesce) for in-flight deliveries to
// settle, detaches the consumers, and assembles the report. Expected
// deliveries are Published × Subscribers: every consumer's wildcard
// matches every device topic, and in-process QoS 1 delivery has no
// shedding path, so any shortfall is real loss.
func (s *Session) Finish(quiesce time.Duration) *Report {
	published := s.gen.Published()
	expected := published * int64(s.spec.Subs)
	// A settle bound, not a failure deadline, so not a clock.Deadline:
	// running out of quiesce is no error — the shortfall is reported as
	// Lost — and a wall grace would only delay every lossy run's report.
	deadline := s.clk.Now().Add(quiesce)
	for s.clk.Now().Before(deadline) && atomic.LoadInt64(&s.delivered) < expected {
		s.clk.Sleep(5 * time.Millisecond)
	}
	elapsed := s.clk.Since(s.gen.origin).Seconds()
	filter := s.spec.Prefix + "/+/status"
	for k := 0; k < s.spec.Subs; k++ {
		s.pool.Unsubscribe(fmt.Sprintf("swarm-sub-%d", k), filter)
	}

	delivered := atomic.LoadInt64(&s.delivered)
	stats := s.pool.Stats()
	rep := &Report{
		Profile:        string(s.spec.Profile),
		Devices:        s.spec.Devices,
		Shards:         s.pool.NumShards(),
		Workers:        s.spec.Workers,
		Subscribers:    s.spec.Subs,
		QoS:            int(s.spec.QoS),
		Seed:           s.spec.Seed,
		DurationSec:    elapsed,
		Published:      published,
		Expected:       expected,
		Delivered:      delivered,
		Lost:           expected - delivered,
		Dropped:        stats.Dropped,
		BridgeForwards: stats.BridgeForwards,
		PerShard:       stats.Shards,
	}
	fo := s.pool.FailoverStats()
	rep.Failovers = fo.Failovers
	rep.Redelivered = fo.Redelivered
	rep.Shed = fo.Shed
	rep.RecoveryP50Ms = quantile(fo.RecoverySec, 0.5) * 1000
	rep.RecoveryP99Ms = quantile(fo.RecoverySec, 0.99) * 1000
	rep.ShardsDown = stats.ShardsDown
	switch s.spec.Profile {
	case ProfileOpen:
		rep.RateTarget = s.spec.Rate
	case ProfileProfiled:
		rep.ProfileName = s.spec.DeviceProfile.Name
	default:
		rep.PeriodSec = s.spec.Period.Seconds()
	}
	if elapsed > 0 {
		rep.PublishRate = float64(published) / elapsed
		rep.DeliveryRate = float64(delivered) / elapsed
	}
	// Failed-over runs settle late deliveries through journal flushes,
	// so re-check the accounting once more after reading pool stats in
	// case a flush landed between the poll loop and the snapshot.
	if late := atomic.LoadInt64(&s.delivered); late > delivered {
		delivered = late
		rep.Delivered = delivered
		rep.Lost = expected - delivered
	}
	if s.reg != nil {
		// The tracer registered this family; re-registration is
		// idempotent (same kind + label schema), so this reads the
		// same histograms the spans fed.
		h := s.reg.HistogramVec(obs.E2ETopicLatencyName,
			"end-to-end publish→deliver MQTT latency by topic class", nil, "class").
			With(obs.TopicClass(DeviceTopic(s.spec.Prefix, 0)))
		rep.LatencySamples = h.Count()
		rep.P50Ms = h.Quantile(0.5) * 1000
		rep.P99Ms = h.Quantile(0.99) * 1000
	}
	return rep
}
