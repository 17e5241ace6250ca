package swarm

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/profile"
)

// Profile names what a run publishes. Every run is paced by the same
// loop over a compiled device profile; closed and open are presets of
// one (LoadSpec.EffectiveProfile), not disciplines of their own.
type Profile string

const (
	// ProfileClosed is the classic device fleet: Devices devices each
	// publishing once per Period, staggered evenly across the period so
	// the fleet never fires in one burst. A run publishes exactly
	// Devices × Duration/Period messages.
	ProfileClosed Profile = "closed"
	// ProfileOpen is a target message rate: every device is an
	// independent seeded Poisson stream with mean gap Devices/Rate, so
	// the fleet offers Rate msgs/s whatever the system's speed — the
	// preset that exposes saturation.
	ProfileOpen Profile = "open"
	// ProfileProfiled drives a heterogeneous device-profile schedule
	// (LoadSpec.DeviceProfile): per-population cadences, payload
	// schemas, diurnal/burst modulation.
	ProfileProfiled Profile = "profiled"
)

// maxOpenRatePerDevice bounds the open preset. The sampler floors every
// gap at 1 ms, which starts to bias a Poisson stream once the mean gap
// nears it; at 100 msg/s/device (mean gap 10 ms) the floor clips under
// 10 % of draws and moves the realized rate by well under 1 %.
const maxOpenRatePerDevice = 100

// minPeriod bounds the closed preset at the same 1 ms floor: a shorter
// period would be paced at 1 ms and publish fewer messages than
// Devices × Duration/Period.
const minPeriod = time.Millisecond

// LoadSpec describes one swarm load run.
type LoadSpec struct {
	Profile  Profile       `json:"profile"`
	Devices  int           `json:"devices"`
	Rate     float64       `json:"rate"`     // open preset target msgs/s
	Period   time.Duration `json:"period"`   // closed preset per-device period
	Duration time.Duration `json:"duration"` // total run length
	Workers  int           `json:"workers"`  // generator workers (one pod each)
	Seed     int64         `json:"seed"`
	QoS      byte          `json:"qos"`
	Subs     int           `json:"subscribers"` // wildcard consumers
	Prefix   string        `json:"prefix"`      // topic prefix, default "swarm"

	// DeviceProfile is the device-population mix for ProfileProfiled
	// runs; setting it selects that profile. Explicit population
	// counts override Devices; weighted populations split the Devices
	// budget.
	DeviceProfile *profile.Profile `json:"device_profile,omitempty"`
}

// WithDefaults fills unset fields with usable values and returns the
// result.
func (s LoadSpec) WithDefaults() LoadSpec {
	if s.DeviceProfile != nil {
		s.Profile = ProfileProfiled
		if s.Devices <= 0 {
			if n := s.DeviceProfile.TotalCount(); n > 0 {
				s.Devices = n
			}
		}
	}
	if s.Profile == "" {
		s.Profile = ProfileClosed
	}
	if s.Devices <= 0 {
		s.Devices = 100
	}
	if s.Rate <= 0 {
		s.Rate = 1000
	}
	if s.Period <= 0 {
		s.Period = time.Second
	}
	if s.Duration <= 0 {
		s.Duration = 10 * time.Second
	}
	if s.Workers <= 0 {
		s.Workers = 4
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Subs <= 0 {
		s.Subs = 2
	}
	if s.Prefix == "" {
		s.Prefix = "swarm"
	}
	return s
}

// Validate rejects specs the generator cannot honour.
func (s LoadSpec) Validate() error {
	switch s.Profile {
	case ProfileClosed:
		if s.Period < minPeriod {
			return fmt.Errorf("swarm: closed profile period %v is under the %v the sampler can pace; for more messages raise -devices",
				s.Period, minPeriod)
		}
	case ProfileOpen:
		if s.Rate <= 0 {
			return fmt.Errorf("swarm: open profile needs a positive rate")
		}
		if s.Devices > 0 && s.Rate/float64(s.Devices) > maxOpenRatePerDevice {
			return fmt.Errorf("swarm: open profile at rate %g over %d devices is %.0f msg/s/device, over the %d the sampler can pace; raise -devices to at least %d",
				s.Rate, s.Devices, s.Rate/float64(s.Devices), maxOpenRatePerDevice,
				int(math.Ceil(s.Rate/maxOpenRatePerDevice)))
		}
	case ProfileProfiled:
		if s.DeviceProfile == nil {
			return fmt.Errorf("swarm: profiled load needs a DeviceProfile")
		}
		if err := s.DeviceProfile.Validate(); err != nil {
			return fmt.Errorf("swarm: %w", err)
		}
	default:
		return fmt.Errorf("swarm: unknown profile %q (want %q, %q or %q)",
			s.Profile, ProfileClosed, ProfileOpen, ProfileProfiled)
	}
	if s.Devices <= 0 {
		return fmt.Errorf("swarm: devices must be positive")
	}
	if s.QoS > 1 {
		return fmt.Errorf("swarm: qos must be 0 or 1, got %d", s.QoS)
	}
	return nil
}

// EffectiveProfile returns the device profile a defaulted, valid spec
// runs: DeviceProfile itself, or the closed/open preset written as the
// one-population profile it is — kind "dev" (so topics stay
// prefix/dev-N/status), one random-walk field v in [0,1]. Feed it to
// profile.Digest or profile.ExpectedCounts for the exact message set
// the run must publish.
func (s LoadSpec) EffectiveProfile() *profile.Profile {
	if s.DeviceProfile != nil {
		return s.DeviceProfile
	}
	cadence := profile.Cadence{Dist: profile.DistFixed, Mean: s.Period, Spread: true}
	if s.Profile == ProfileOpen {
		mean := time.Duration(float64(s.Devices) / s.Rate * float64(time.Second))
		cadence = profile.Cadence{Dist: profile.DistPoisson, Mean: mean}
	}
	return &profile.Profile{
		Name: string(s.Profile),
		Seed: s.Seed,
		Populations: []profile.Population{{
			Kind:    "dev",
			Count:   s.Devices,
			Cadence: cadence,
			Fields:  []profile.Field{{Name: "v", Gen: profile.GenRandomWalk, Min: 0, Max: 1, Step: 0.05}},
		}},
	}
}

// DeviceTopic returns the status topic for device i under prefix —
// "swarm/dev-7/status" style, a three-level topic so the obs topic
// class collapses every device to one histogram child.
func DeviceTopic(prefix string, i int) string {
	return fmt.Sprintf("%s/dev-%d/status", prefix, i)
}

// Fire is the generator's emit callback: device index, a per-worker
// sequence number, and the sampled payload. Fire must be safe for
// concurrent use across devices; a single device is only ever fired by
// its owning worker.
type Fire func(device int, seq uint64, payload []byte)

// Generator paces fire callbacks according to a LoadSpec. Create with
// NewGenerator, then run each worker (RunWorker) until its context
// ends — typically one worker per kube pod so placement is exercised.
type Generator struct {
	spec    LoadSpec
	fire    Fire
	clk     clock.Clock
	origin  time.Time // scenario offset 0 on clk, shared by every worker
	sampler *profile.Sampler
	// counts holds each worker's fire calls on a line of its own.
	counts []paddedCount
	// tap, when set, sees every message just before fire, with the
	// scenario offset the sampler scheduled it at (Session.SetTap).
	tap func(at time.Duration, device int, payload []byte)
}

// NewGenerator builds a generator over a defaulted, validated spec.
// fire is called for every generated message; it must be safe for
// concurrent use. The device profile compiles here, so an
// unsatisfiable one fails fast rather than producing a silent
// zero-message run.
func NewGenerator(spec LoadSpec, fire Fire) (*Generator, error) {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	s, err := profile.Compile(spec.EffectiveProfile(), spec.Devices, spec.Seed)
	if err != nil {
		return nil, err
	}
	// Explicit population counts can exceed the Devices budget.
	spec.Devices = s.Devices()
	g := &Generator{spec: spec, fire: fire, sampler: s, counts: make([]paddedCount, spec.Workers)}
	g.SetClock(nil)
	return g, nil
}

// Sampler returns the compiled device-profile sampler. Publishers use
// it to route sampled payloads onto per-kind device topics.
func (g *Generator) Sampler() *profile.Sampler { return g.sampler }

// SetClock replaces the generator's pacing clock (default: the wall
// clock) and takes the schedule's origin from it: every worker fires
// an arrival at origin + its offset, however late its pod starts. Call
// before RunWorker; a virtual clock lets a load run be driven in
// compressed time.
func (g *Generator) SetClock(c clock.Clock) {
	g.clk = clock.Or(c)
	g.origin = g.clk.Now()
}

// Spec returns the defaulted spec the generator runs.
func (g *Generator) Spec() LoadSpec { return g.spec }

// Workers returns how many workers RunWorker expects (0..Workers-1).
func (g *Generator) Workers() int { return g.spec.Workers }

// owner returns the worker that fires device d: device d belongs to
// worker d mod Workers.
func (g *Generator) owner(d int) int { return d % g.spec.Workers }

// Published returns the number of fire calls made so far.
func (g *Generator) Published() int64 { return sumCounts(g.counts) }

// paddedCount is a counter with one writer among several (a generator
// worker, a publish lane), padded so that no two share a cache line.
// A slice of them is allocated in a 64-byte multiple, which Go's size
// classes align to 64 bytes.
type paddedCount struct {
	atomic.Int64
	_ [56]byte
}

// sumCounts reads a set of per-writer counters.
func sumCounts(cs []paddedCount) int64 {
	var n int64
	for i := range cs {
		n += cs[i].Load()
	}
	return n
}

// pendArrival is one scheduled message waiting to fire.
type pendArrival struct {
	at      time.Duration
	device  int
	payload []byte
}

// pendHeap is a min-heap of pending arrivals ordered by (offset,
// device) — the device tiebreak keeps the within-worker fire order
// deterministic when two devices land on the same instant. It sifts
// typed values itself: container/heap's any boxing would cost two
// allocations per message.
type pendHeap []pendArrival

func (h pendHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].device < h[j].device
}

func (h *pendHeap) push(a pendArrival) {
	*h = append(*h, a)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// pop removes the earliest arrival; the heap must not be empty.
func (h *pendHeap) pop() {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], pendArrival{}
	s = s[:n]
	*h = s
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && s.less(r, c) {
			c = r
		}
		if !s.less(c, i) {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
}

// RunWorker drives worker w's device slice (device d belongs to worker
// d mod Workers) through the compiled sampler schedule: a min-heap of
// pending arrivals, each fired at the generator's origin plus its
// sampled offset (an arrival already due fires at once), each
// immediately replaced by the device's next draw. The
// message set — contents, per-device order, count — is a pure function
// of (profile, seed, duration); the clock only stretches or compresses
// the waits between firings.
//
// The worker ends when every owned device's next arrival falls at or
// past Duration, or when ctx is cancelled. No timer cancels it at
// Duration: one firing at exactly that boundary would race the last
// arrivals and make the message set depend on timer ordering.
func (g *Generator) RunWorker(ctx context.Context, w int) error {
	if w < 0 || w >= g.spec.Workers {
		return fmt.Errorf("swarm: worker %d out of range [0,%d)", w, g.spec.Workers)
	}
	var h pendHeap
	for d := w; d < g.spec.Devices; d += g.spec.Workers { // g.owner(d) == w
		at, payload := g.sampler.NextFire(d)
		if at < g.spec.Duration {
			h.push(pendArrival{at, d, payload})
		}
	}
	var seq uint64
	for len(h) > 0 {
		next := h[0]
		if clock.SleepUntil(ctx, g.clk, g.origin.Add(next.at)) != nil {
			return nil
		}
		h.pop()
		if g.tap != nil {
			g.tap(next.at, next.device, next.payload)
		}
		g.fire(next.device, seq, next.payload)
		seq++
		g.counts[w].Add(1)
		if at, payload := g.sampler.NextFire(next.device); at < g.spec.Duration {
			h.push(pendArrival{at, next.device, payload})
		}
	}
	return nil
}
