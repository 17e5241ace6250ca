package profile

import (
	"bytes"
	"math"
	"math/big"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/rng"
)

// TestSamplerDeterminism compiles the same profile twice and walks
// both schedules in different device orders: every (offset, payload)
// stream must be byte-identical, because the schedule is pure
// arithmetic on (profile, seed, device).
func TestSamplerDeterminism(t *testing.T) {
	p := testProfile()
	s1, err := Compile(p, 12, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Compile(testProfile(), 12, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Devices() != s2.Devices() {
		t.Fatalf("device counts differ: %d vs %d", s1.Devices(), s2.Devices())
	}
	// Walk s1 forward, s2 backward over devices: interleaving across
	// devices must not matter, only per-device call order.
	type msg struct {
		at      time.Duration
		payload []byte
	}
	walk := func(s *Sampler, reverse bool) map[int][]msg {
		out := map[int][]msg{}
		order := make([]int, s.Devices())
		for i := range order {
			if reverse {
				order[i] = s.Devices() - 1 - i
			} else {
				order[i] = i
			}
		}
		for _, d := range order {
			for {
				at, payload := s.NextFire(d)
				if at >= 2*time.Second {
					break
				}
				out[d] = append(out[d], msg{at, payload})
			}
		}
		return out
	}
	m1, m2 := walk(s1, false), walk(s2, true)
	total := 0
	for d := 0; d < s1.Devices(); d++ {
		a, b := m1[d], m2[d]
		if len(a) != len(b) {
			t.Fatalf("device %d: %d vs %d messages", d, len(a), len(b))
		}
		total += len(a)
		for i := range a {
			if a[i].at != b[i].at || !bytes.Equal(a[i].payload, b[i].payload) {
				t.Fatalf("device %d message %d diverges: (%v, %s) vs (%v, %s)",
					d, i, a[i].at, a[i].payload, b[i].at, b[i].payload)
			}
		}
	}
	if total == 0 {
		t.Fatal("no messages sampled")
	}
}

// TestDigestStable pins the digest of the reference profile: any
// change to the sampling arithmetic shows up here before it shows up
// as a cross-speed or golden-trace failure in the examples.
func TestDigestStable(t *testing.T) {
	d1, n1, err := Digest(testProfile(), 12, 0, 2*time.Second, "swarm")
	if err != nil {
		t.Fatal(err)
	}
	d2, n2, err := Digest(testProfile(), 12, 0, 2*time.Second, "swarm")
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 || n1 != n2 {
		t.Fatalf("digest not reproducible: %s/%d vs %s/%d", d1, n1, d2, n2)
	}
	d3, _, err := Digest(testProfile(), 12, 99, 2*time.Second, "swarm")
	if err != nil {
		t.Fatal(err)
	}
	if d3 != d1 {
		t.Fatal("profile seed 42 should shadow the fallback seed, but digests differ")
	}
	unseeded := testProfile()
	unseeded.Seed = 0
	d4, _, err := Digest(unseeded, 12, 5, 2*time.Second, "swarm")
	if err != nil {
		t.Fatal(err)
	}
	d5, _, err := Digest(unseeded, 12, 6, 2*time.Second, "swarm")
	if err != nil {
		t.Fatal(err)
	}
	if d4 == d5 {
		t.Fatal("fallback seed has no effect on an unseeded profile")
	}
}

// TestExpectedCountsMatchMeanRate sanity-checks the schedule volume:
// a fixed 100ms cadence over 10 seconds is 100 messages per device.
func TestExpectedCountsMatchMeanRate(t *testing.T) {
	p := &Profile{
		Name: "flat",
		Seed: 3,
		Populations: []Population{{
			Kind: "meter", Count: 5,
			Cadence: Cadence{Dist: DistFixed, Mean: 100 * time.Millisecond},
		}},
	}
	counts, err := ExpectedCounts(p, 0, 0, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// First fire lands at 100ms, last below 10s: exactly 99..100 per
	// device depending on the boundary.
	if got := counts["meter"]; got < 5*99 || got > 5*100 {
		t.Fatalf("expected ~500 meter messages, got %d", got)
	}
}

// TestSpreadStaggersFixedCadence pins the spread schedule: device k of
// n first fires at Mean·k/n and then every Mean, so a window of m
// periods holds exactly m messages per device — where the unspread
// twin, firing every device at Mean, 2·Mean, …, holds m-1.
func TestSpreadStaggersFixedCadence(t *testing.T) {
	// The second row is a day-long fleet whose Mean·k overflows int64
	// nanoseconds from device 106,752 on.
	for _, tc := range []struct {
		n       int
		mean    time.Duration
		periods int
	}{
		{8, 100 * time.Millisecond, 5},
		{200_000, 24 * time.Hour, 1},
	} {
		p := &Profile{
			Name: "lamps", Seed: 3,
			Populations: []Population{{
				Kind: "lamp", Count: tc.n,
				Cadence: Cadence{Dist: DistFixed, Mean: tc.mean, Spread: true},
			}},
		}
		fired := make([]int, tc.n)
		err := Walk(p, 0, 0, time.Duration(tc.periods)*tc.mean, func(d int, at time.Duration, _ []byte) {
			first := new(big.Int).Mul(big.NewInt(int64(tc.mean)), big.NewInt(int64(d)))
			first.Div(first, big.NewInt(int64(tc.n)))
			if want := time.Duration(first.Int64()) + time.Duration(fired[d])*tc.mean; at != want {
				t.Fatalf("n=%d: device %d message %d at %v, want %v", tc.n, d, fired[d], at, want)
			}
			fired[d]++
		})
		if err != nil {
			t.Fatal(err)
		}
		for d, got := range fired {
			if got != tc.periods {
				t.Fatalf("n=%d: device %d fired %d times in %d periods", tc.n, d, got, tc.periods)
			}
		}
	}

	const n, mean, periods = 8, 100 * time.Millisecond, 5
	p := &Profile{
		Name: "lamps", Seed: 3,
		Populations: []Population{{
			Kind: "lamp", Count: n,
			Cadence: Cadence{Dist: DistFixed, Mean: mean},
		}},
	}
	counts, err := ExpectedCounts(p, 0, 0, periods*mean)
	if err != nil {
		t.Fatal(err)
	}
	if counts["lamp"] != n*(periods-1) {
		t.Fatalf("unspread population fired %d, want %d", counts["lamp"], n*(periods-1))
	}
}

// TestSamplerFootprint pins the design point of swarm mode: 10k
// devices cost 10k small structs. A compiled 10k-device fleet spawns
// no goroutines and stays inside a small per-device memory budget —
// a goroutine, watcher and ticker per device would fail both, and so
// would a math/rand source per device (~4.8 KiB each).
func TestSamplerFootprint(t *testing.T) {
	p := &Profile{
		Name: "fleet", Seed: 1,
		Populations: []Population{{
			Kind: "dev", Count: 10_000,
			Cadence: Cadence{Dist: DistFixed, Mean: time.Second, Spread: true},
			Fields:  []Field{{Name: "v", Gen: GenRandomWalk, Min: 0, Max: 1}},
		}},
	}
	before := runtime.NumGoroutine()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heapBefore := ms.HeapAlloc

	s, err := Compile(p, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("compile spawned goroutines: %d -> %d", before, got)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	// A device is ~100 B of state plus 16 B per field; 512 B leaves
	// room for the slice's growth slack.
	if per := float64(ms.HeapAlloc-heapBefore) / float64(s.Devices()); per > 512 {
		t.Fatalf("sampler footprint %.0f B/device exceeds budget", per)
	}
	if at, payload := s.NextFire(9_999); at <= 0 || len(payload) == 0 {
		t.Fatalf("last device fired (%v, %q)", at, payload)
	}
}

// TestBurstAmplifies verifies the burst window multiplies the rate:
// a bursty population must emit measurably more than its flat twin.
func TestBurstAmplifies(t *testing.T) {
	flat := &Profile{
		Name: "flat", Seed: 9,
		Populations: []Population{{
			Kind: "cam", Count: 4,
			Cadence: Cadence{Dist: DistFixed, Mean: 50 * time.Millisecond},
		}},
	}
	bursty := &Profile{
		Name: "bursty", Seed: 9,
		Populations: []Population{{
			Kind: "cam", Count: 4,
			Cadence: Cadence{Dist: DistFixed, Mean: 50 * time.Millisecond},
			Burst:   &Burst{Every: time.Second, Length: 500 * time.Millisecond, Factor: 10},
		}},
	}
	fc, err := ExpectedCounts(flat, 0, 0, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := ExpectedCounts(bursty, 0, 0, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if bc["cam"] < 2*fc["cam"] {
		t.Fatalf("burst x10 for half of every second should at least double volume: flat %d bursty %d",
			fc["cam"], bc["cam"])
	}
}

// TestAppendFixed4MatchesStrconv sweeps the values payload fields take
// — random magnitudes from 1e-6 to 1e13, four-decimal grid points and
// the float64s either side of each half-way point — and checks the
// formatter against strconv byte for byte.
func TestAppendFixed4MatchesStrconv(t *testing.T) {
	s := rng.New(7, 0)
	check := func(v float64) {
		want := strconv.AppendFloat(nil, v, 'f', 4, 64)
		if got := appendFixed4(nil, v); !bytes.Equal(got, want) {
			t.Fatalf("appendFixed4(%v) = %q, strconv says %q", v, got, want)
		}
	}
	for i := 0; i < 100000; i++ {
		v := math.Pow(10, -6+19*s.Float64()) * (s.Float64() - 0.5)
		check(v)
		grid := math.Round(v*1e4) / 1e4
		half := grid + 0.00005
		for _, x := range []float64{grid, half, math.Nextafter(half, 0), math.Nextafter(half, math.Inf(1))} {
			check(x)
		}
	}
}
