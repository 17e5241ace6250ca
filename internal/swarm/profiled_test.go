package swarm

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/profile"
)

func profiledSpec() LoadSpec {
	return LoadSpec{
		Duration: 2 * time.Second,
		Workers:  3,
		Seed:     17,
		DeviceProfile: &profile.Profile{
			Name: "xspeed",
			Seed: 17,
			Populations: []profile.Population{
				{Kind: "thermostat", Count: 5,
					Cadence: profile.Cadence{Dist: profile.DistPoisson, Mean: 120 * time.Millisecond},
					Fields:  []profile.Field{{Name: "t", Gen: profile.GenSine, Min: 18, Max: 26, Period: time.Minute}}},
				{Kind: "meter", Count: 4,
					Cadence: profile.Cadence{Dist: profile.DistFixed, Mean: 80 * time.Millisecond},
					Fields:  []profile.Field{{Name: "kwh", Gen: profile.GenRandomWalk, Min: 0, Max: 10}}},
				{Kind: "cam", Count: 3,
					Cadence: profile.Cadence{Dist: profile.DistLognormal, Mean: 150 * time.Millisecond, Sigma: 0.5},
					Burst:   &profile.Burst{Every: time.Second, Length: 100 * time.Millisecond, Factor: 4}},
			},
		},
	}
}

// closedSpec and openSpec are the presets at test size: short enough
// to run at -speed 1.
func closedSpec() LoadSpec {
	return LoadSpec{
		Profile: ProfileClosed, Devices: 23, Period: 40 * time.Millisecond,
		Duration: 160 * time.Millisecond, Workers: 4, Seed: 1,
	}
}

func openSpec() LoadSpec {
	return LoadSpec{
		Profile: ProfileOpen, Devices: 50, Rate: 4000,
		Duration: 150 * time.Millisecond, Workers: 3, Seed: 42,
	}
}

type firedMsg struct {
	at      time.Duration
	payload []byte
}

// runOn drives every worker of spec's generator on the given clock and
// returns the per-device fire streams; done runs once the workers have
// drained (a driven clock's stop).
func runOn(t *testing.T, spec LoadSpec, clk clock.Clock, done func()) map[int][]firedMsg {
	t.Helper()
	var mu sync.Mutex
	streams := map[int][]firedMsg{}
	start := clk.Now()
	g, err := NewGenerator(spec, func(device int, _ uint64, payload []byte) {
		mu.Lock()
		streams[device] = append(streams[device], firedMsg{clk.Since(start), append([]byte(nil), payload...)})
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	g.SetClock(clk)
	var wg sync.WaitGroup
	for w := 0; w < g.Workers(); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := g.RunWorker(context.Background(), w); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	if done != nil {
		done()
	}
	return streams
}

// runAtMax runs spec unpaced and returns the streams — the cheapest
// way to get a run's exact message set.
func runAtMax(t *testing.T, spec LoadSpec) map[int][]firedMsg {
	t.Helper()
	s := clock.NewScaled(clock.SpeedMax, nil)
	go s.Drive()
	return runOn(t, spec, s, s.Stop)
}

// walkOracle is the clockless twin of a run of spec: profile.Walk over
// the profile the spec compiles.
func walkOracle(t *testing.T, spec LoadSpec) map[int][]firedMsg {
	t.Helper()
	spec = spec.WithDefaults()
	oracle := map[int][]firedMsg{}
	err := profile.Walk(spec.EffectiveProfile(), spec.Devices, spec.Seed, spec.Duration,
		func(device int, at time.Duration, payload []byte) {
			oracle[device] = append(oracle[device], firedMsg{at, append([]byte(nil), payload...)})
		})
	if err != nil {
		t.Fatal(err)
	}
	return oracle
}

func countMsgs(streams map[int][]firedMsg) int {
	n := 0
	for _, s := range streams {
		n += len(s)
	}
	return n
}

// sameStreams fails unless got holds want's devices, message counts and
// payloads exactly.
func sameStreams(t *testing.T, name string, got, want map[int][]firedMsg) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d devices fired, want %d", name, len(got), len(want))
	}
	for d, w := range want {
		g := got[d]
		if len(g) != len(w) {
			t.Fatalf("%s: device %d fired %d messages, want %d", name, d, len(g), len(w))
		}
		for i := range w {
			if !bytes.Equal(g[i].payload, w[i].payload) {
				t.Fatalf("%s: device %d message %d payload diverges:\n  got  %s\n  want %s",
					name, d, i, g[i].payload, w[i].payload)
			}
		}
	}
}

// TestProfiledCrossSpeedDeterminism is the profile determinism table:
// the same spec — a heterogeneous profile or either preset — produces
// byte-identical per-device message streams on a hand-stepped
// clock.Virtual, a clock.Scaled at -speed 1, at a finite factor and
// unpaced at SpeedMax; and all of them match the pure arithmetic
// profile.Walk oracle.
func TestProfiledCrossSpeedDeterminism(t *testing.T) {
	for name, spec := range map[string]LoadSpec{
		"profiled": profiledSpec(),
		"closed":   closedSpec(),
		"open":     openSpec(),
	} {
		spec := spec
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			oracle := walkOracle(t, spec)
			if countMsgs(oracle) == 0 {
				t.Fatal("oracle walk produced no messages")
			}

			// clock.Virtual, stepped by hand until the workers drain.
			v := clock.NewVirtual()
			var drained sync.WaitGroup
			drained.Add(1)
			finished := make(chan struct{})
			go func() {
				defer drained.Done()
				for {
					select {
					case <-finished:
						return
					default:
					}
					if !v.Step(clock.Epoch.Add(time.Hour)) {
						// No timer armed yet: let the workers arm one.
						runtime.Gosched()
					}
				}
			}()
			sameStreams(t, "virtual", runOn(t, spec, v, func() { close(finished) }), oracle)
			drained.Wait()

			for name, factor := range map[string]float64{
				"scaled-1x":     1,
				"scaled-10000x": 10000,
				"scaled-max":    clock.SpeedMax,
			} {
				s := clock.NewScaled(factor, nil)
				go s.Drive()
				sameStreams(t, name, runOn(t, spec, s, s.Stop), oracle)
			}
		})
	}
}

// TestProfiledDefaultsAndValidation covers the spec plumbing: setting
// DeviceProfile selects the profiled discipline, explicit population
// counts override the device budget, and an unsatisfiable profile
// fails generator construction.
func TestProfiledDefaultsAndValidation(t *testing.T) {
	spec := profiledSpec().WithDefaults()
	if spec.Profile != ProfileProfiled {
		t.Fatalf("profile = %q, want %q", spec.Profile, ProfileProfiled)
	}
	if spec.Devices != 12 {
		t.Fatalf("devices = %d, want the profile's 12 explicit devices", spec.Devices)
	}

	bad := profiledSpec()
	bad.DeviceProfile.Populations[0].Cadence.Mean = 0
	if _, err := NewGenerator(bad, func(int, uint64, []byte) {}); err == nil {
		t.Fatal("unsatisfiable profile accepted by NewGenerator")
	}
}

// armCounter is a Virtual that counts its pending timer waits, so
// a test's Step loop can tell when every worker has parked.
type armCounter struct {
	*clock.Virtual
	pending atomic.Int64
}

// AfterFunc counts the wait once it is armed: a Step loop that sees
// the count cannot fire past it.
func (c *armCounter) AfterFunc(d time.Duration, fn func()) clock.Timer {
	t := c.Virtual.AfterFunc(d, func() {
		c.pending.Add(-1)
		fn()
	})
	c.pending.Add(1)
	return t
}

// After counts through AfterFunc, so a worker waiting on After parks
// visibly too.
func (c *armCounter) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	c.AfterFunc(d, func() { ch <- c.Now() })
	return ch
}

// TestWorkersShareOneOrigin: every worker plays its device slice
// against the origin the generator's clock was set at, so a worker pod
// that starts after the clock moved fires its backlog at once and the
// rest of its slice on the common schedule, not shifted by its start.
// The test's Step loop only steps once every running worker is parked,
// so each fire's Now is exact.
func TestWorkersShareOneOrigin(t *testing.T) {
	spec := LoadSpec{
		Profile: ProfileClosed, Devices: 8, Period: 20 * time.Millisecond,
		Duration: 200 * time.Millisecond, Workers: 2, Seed: 3,
	}
	clk := &armCounter{Virtual: clock.NewVirtual()}
	type fire struct {
		w   int
		at  time.Duration
		now time.Time
	}
	var mu sync.Mutex
	var fires []fire
	var fired0 atomic.Int64
	g, err := NewGenerator(spec, func(int, uint64, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	g.SetClock(clk)
	origin := clock.Epoch
	g.tap = func(at time.Duration, device int, _ []byte) {
		w := device % spec.Workers
		if w == 0 {
			fired0.Add(1)
		}
		mu.Lock()
		fires = append(fires, fire{w: w, at: at, now: clk.Now()})
		mu.Unlock()
	}

	var active atomic.Int64
	var wg sync.WaitGroup
	run := func(w int) {
		active.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer active.Add(-1)
			if err := g.RunWorker(context.Background(), w); err != nil {
				t.Error(err)
			}
		}()
	}
	run(0)
	var start1 time.Time
	for {
		n := active.Load()
		if n == 0 {
			break
		}
		if clk.pending.Load() < n {
			runtime.Gosched() // a worker is still firing
			continue
		}
		clk.Step(clock.Epoch.Add(time.Hour))
		if start1.IsZero() && fired0.Load() >= 3 {
			// The clock cannot move again until worker 1 parks too.
			start1 = clk.Now()
			run(1)
		}
	}
	wg.Wait()

	if start1.IsZero() || !start1.After(origin) {
		t.Fatalf("worker 1 started at %v, want after the origin %v", start1, origin)
	}
	onTime := map[int]int{}
	for _, f := range fires {
		due := origin.Add(f.at)
		if f.w == 1 && due.Before(start1) {
			// Late: due before its worker started, so fired at once.
			if !f.now.Equal(start1) {
				t.Fatalf("worker 1's late arrival at %v fired at %v, want its start %v", f.at, f.now.Sub(origin), start1.Sub(origin))
			}
			continue
		}
		if !f.now.Equal(due) {
			t.Fatalf("worker %d fired its arrival at %v at %v, want origin + at", f.w, f.at, f.now.Sub(origin))
		}
		onTime[f.w]++
	}
	if onTime[0] == 0 || onTime[1] == 0 {
		t.Fatalf("on-time fires per worker = %v, want both workers on the schedule", onTime)
	}
	if got, want := int64(len(fires)), scheduled(t, spec); got != want {
		t.Fatalf("fired %d messages, the schedule has %d", got, want)
	}
}
