package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	digibox "repro"
	"repro/internal/clock"
	"repro/internal/profile"
	"repro/internal/swarm"
)

const (
	fleetPrefix = "city"
	// fleetScale multiplies cityscape's populations: 40 devices × 25.
	fleetScale = 25
	// fleetWindow is the scenario time one operation replays. Identical
	// operations take 0.6x to 2x their median wall time, so a run
	// needs several hundred of them for its median to repeat: at 20
	// scenario-seconds (50 operations a run) the median spread 9-17 %
	// across runs, at 5 (200 operations) 5-11 %, at 2 (450) 6-8 %.
	fleetWindow = 2 * time.Second
	// fleetPer is the message count an operation's wall time is scaled
	// to: the seed moves a window's message count by a few percent, and
	// the latency reported must not move with it.
	fleetPer    = 10000
	fleetShards = 4
)

// cityProfile is examples/cityscape/profile.yaml — diurnal-Poisson
// thermostats with firmware skew, fixed-cadence streetlamps, bursty
// lognormal traffic cams — with the run's seed and every population
// scaled.
func cityProfile(seed int64, scale int) (*profile.Profile, error) {
	const file = "examples/cityscape/profile.yaml"
	data, err := repoFile(file)
	if err != nil {
		return nil, err
	}
	p, err := profile.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	p.Seed = seed
	for i := range p.Populations {
		p.Populations[i].Count *= scale
	}
	return p, nil
}

// fleetOracle is what a run of (profile, window) must emit, computed
// from the compiled sampler with no clock at all.
type fleetOracle struct {
	total  int64
	digest string // per-topic payload chains folded in sorted topic order
}

func newFleetOracle(p *profile.Profile, window time.Duration) (fleetOracle, error) {
	_, total, err := profile.Digest(p, 0, p.Seed, window, fleetPrefix)
	if err != nil {
		return fleetOracle{}, err
	}
	s, err := profile.Compile(p, 0, p.Seed)
	if err != nil {
		return fleetOracle{}, err
	}
	d := newTopicDigest()
	for dev := 0; dev < s.Devices(); dev++ {
		topic := s.DeviceTopic(fleetPrefix, dev)
		for {
			at, payload := s.NextFire(dev)
			if at >= window {
				break
			}
			d.observe(topic, payload)
		}
	}
	sum, n := d.sum()
	if n != total {
		return fleetOracle{}, fmt.Errorf("oracle walk saw %d messages, profile.Digest %d", n, total)
	}
	return fleetOracle{total: total, digest: sum}, nil
}

// topicDigest chains each topic's payloads in arrival order and folds
// the chains in sorted topic order. QoS-1 in-process delivery keeps
// per-device order, so the fold is independent of how devices
// interleave — and of the clock.
type topicDigest struct {
	mu     sync.Mutex
	chains map[string]hash.Hash
	n      int64
}

func newTopicDigest() *topicDigest {
	return &topicDigest{chains: map[string]hash.Hash{}}
}

func (t *topicDigest) observe(topic string, payload []byte) {
	t.mu.Lock()
	h, ok := t.chains[topic]
	if !ok {
		h = sha256.New()
		h.Write([]byte(topic))
		t.chains[topic] = h
	}
	h.Write(payload)
	t.n++
	t.mu.Unlock()
}

func (t *topicDigest) sum() (string, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	topics := make([]string, 0, len(t.chains))
	for topic := range t.chains {
		topics = append(topics, topic)
	}
	sort.Strings(topics)
	fold := sha256.New()
	for _, topic := range topics {
		fold.Write(t.chains[topic].Sum(nil))
	}
	return hex.EncodeToString(fold.Sum(nil)), t.n
}

// fleetWorkload is timewarp_fleet: a Testbed at -speed max with no
// broker or REST listener replays the 1000-device city through the
// profiled swarm discipline, 4 shards, 2 workers, QoS 1, one
// subscriber plus the tap. One operation is one RunSwarm over
// fleetWindow of scenario time; its work is fixed by the seed and its
// oracle is exact. The capture-refit leg of the cityscape drill is
// left out: it is scheduling-dependent at seed.
type fleetWorkload struct {
	seed int64
	tr   *tracer

	tb     *digibox.Testbed
	prof   *profile.Profile
	oracle fleetOracle

	bridgeForwards, lost, shed int64

	// Tap marks of the traced operation in flight.
	firstTap, lastTap atomic.Int64
}

func (w *fleetWorkload) setup() error {
	var err error
	if w.prof, err = cityProfile(w.seed, fleetScale); err != nil {
		return err
	}
	if w.oracle, err = newFleetOracle(w.prof, fleetWindow); err != nil {
		return err
	}
	w.tb, err = newFleetTestbed()
	return err
}

func newFleetTestbed() (*digibox.Testbed, error) {
	var nodes []digibox.NodeSpec
	for i := 0; i < fleetShards; i++ {
		nodes = append(nodes, digibox.NodeSpec{Name: fmt.Sprintf("node-%d", i), Capacity: 64, Zone: "local"})
	}
	tb, err := digibox.New(digibox.Options{
		Nodes:      nodes,
		BrokerAddr: "none",
		RESTAddr:   "none",
		TimeScale:  clock.SpeedMax,
	})
	if err != nil {
		return nil, err
	}
	if err := tb.Start(); err != nil {
		return nil, err
	}
	return tb, nil
}

// runFleet is one profiled swarm run with the digest tap, checked
// against its oracle.
func runFleet(tb *digibox.Testbed, p *profile.Profile, window time.Duration, want fleetOracle, tap func()) (*swarm.Report, error) {
	d := newTopicDigest()
	rep, err := tb.RunSwarm(context.Background(), digibox.SwarmSpec{
		Shards: fleetShards,
		Load: swarm.LoadSpec{
			Profile:       swarm.ProfileProfiled,
			DeviceProfile: p,
			Duration:      window,
			Workers:       2,
			QoS:           1,
			Subs:          1,
			Seed:          p.Seed,
			Prefix:        fleetPrefix,
		},
		Tap: func(topic string, payload []byte) {
			d.observe(topic, payload)
			if tap != nil {
				tap()
			}
		},
	})
	if err != nil {
		return nil, err
	}
	if rep.Published != want.total || rep.Lost != 0 {
		return nil, fmt.Errorf("published %d (want %d), lost %d", rep.Published, want.total, rep.Lost)
	}
	if sum, n := d.sum(); n != want.total || sum != want.digest {
		return nil, fmt.Errorf("tap digest %.12s over %d messages, want %.12s over %d", sum, n, want.digest, want.total)
	}
	return rep, nil
}

func (w *fleetWorkload) op() (time.Duration, int, error) {
	var tap func()
	traced := w.tr.active()
	if traced {
		w.firstTap.Store(0)
		tap = func() {
			now := w.tr.now()
			w.firstTap.CompareAndSwap(0, now)
			w.lastTap.Store(now)
		}
	}
	t0 := time.Now()
	rep, err := runFleet(w.tb, w.prof, fleetWindow, w.oracle, tap)
	lat := time.Since(t0)
	if err != nil {
		return 0, 0, err
	}
	w.bridgeForwards += rep.BridgeForwards
	w.lost += rep.Lost
	w.shed += rep.Shed
	if traced {
		start := w.tr.at(t0)
		first, last := w.firstTap.Load(), w.lastTap.Load()
		w.tr.op([]span{
			{ID: 1, Name: "fleet.op", Start: start, End: start + int64(lat)},
			{ID: 2, Parent: 1, Name: "swarm.start", Start: start, End: first},
			{ID: 3, Parent: 1, Name: "swarm.run", Start: first, End: last},
			{ID: 4, Parent: 1, Name: "swarm.finish", Start: last, End: start + int64(lat)},
		})
	}
	return lat * fleetPer / time.Duration(rep.Published), int(rep.Published), nil
}

func (w *fleetWorkload) verify() error { return nil } // every operation is checked exactly in runFleet

func (w *fleetWorkload) layers(m map[string]metric) {
	m["swarm.bridge_forwards"] = metric{float64(w.bridgeForwards), "count"}
	m["swarm.lost"] = metric{float64(w.lost), "count"}
	m["swarm.shed"] = metric{float64(w.shed), "count"}
}

func (w *fleetWorkload) teardown() {
	if w.tb != nil {
		w.tb.Stop()
		w.tb = nil
	}
}
