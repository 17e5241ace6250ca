package rng

import (
	"hash/fnv"
	"math"
	"testing"
)

// The zero Stream is splitmix64 from state 0, whose first outputs are
// the reference implementation's published test vector.
func TestZeroStreamIsSplitmix64(t *testing.T) {
	var s Stream
	for i, want := range []uint64{0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F} {
		if got := s.Uint64(); got != want {
			t.Fatalf("draw %d = %#x, want %#x", i, got, want)
		}
	}
}

// Two streams built from equal (seed, key) walk the same sequence, and
// a different seed or key walks a different one.
func TestStreamsAreDeterministic(t *testing.T) {
	a, b := New(42, 3), New(42, 3)
	for i := 0; i < 100; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("draw %d: %#x != %#x", i, x, y)
		}
	}
	first := func(s Stream) uint64 { return s.Uint64() }
	if first(New(42, 3)) == first(New(43, 3)) || first(New(42, 3)) == first(New(42, 4)) {
		t.Fatal("neighbouring seeds or keys start on the same draw")
	}
}

// Adjacent keys must not be shifted copies of each other: with naive
// seed + key·golden seeding, stream k+1 would replay stream k one draw
// later, and a whole fleet would share one draw sequence.
func TestAdjacentKeysDecorrelated(t *testing.T) {
	const seed = 7
	for k := uint64(0); k < 1000; k++ {
		cur, next := New(seed, k), New(seed, k+1)
		cur.Uint64()
		for i := 0; i < 64; i++ {
			if x, y := next.Uint64(), cur.Uint64(); x == y {
				t.Fatalf("key %d draw %d equals key %d draw %d (%#x)", k+1, i+1, k, i+2, x)
			}
		}
	}
}

// Key is 64-bit FNV-1a, so a name hashes the same here as anywhere
// else that speaks FNV.
func TestKeyMatchesFNV1a(t *testing.T) {
	for _, s := range []string{"", "a", "b", "digi-runtime", "swarm-sub-1", "O1"} {
		h := fnv.New64a()
		h.Write([]byte(s))
		if got, want := Key(s), h.Sum64(); got != want {
			t.Errorf("Key(%q) = %#x, want %#x", s, got, want)
		}
	}
	if Key("a") == Key("b") {
		t.Fatal("Key collided on trivial inputs")
	}
}

func TestBoundedDrawsStayInRange(t *testing.T) {
	s := New(1, 0)
	for _, n := range []int64{1, 3, 7, 100, 1<<62 + 1} {
		for i := 0; i < 10000; i++ {
			if v := s.Int63n(n); v < 0 || v >= n {
				t.Fatalf("Int63n(%d) = %d", n, v)
			}
			if v := s.Intn(int(n)); v < 0 || v >= int(n) {
				t.Fatalf("Intn(%d) = %d", n, v)
			}
		}
	}
}

// A chi-square goodness-of-fit test at a fixed seed: the statistic
// must stay under the 0.1 % critical value for n-1 degrees of freedom.
func TestBoundedDrawsAreUniform(t *testing.T) {
	critical := map[int]float64{3: 13.82, 7: 22.46, 100: 148.23}
	s := New(2024, 0)
	for n, limit := range critical {
		const draws = 200000
		counts := make([]int, n)
		for i := 0; i < draws; i++ {
			if i%2 == 0 {
				counts[s.Intn(n)]++
			} else {
				counts[s.Int63n(int64(n))]++
			}
		}
		expect := float64(draws) / float64(n)
		var chi2 float64
		for _, c := range counts {
			d := float64(c) - expect
			chi2 += d * d / expect
		}
		if chi2 > limit {
			t.Errorf("n=%d: chi-square %.2f exceeds %.2f", n, chi2, limit)
		}
	}
}

func TestBoundedDrawsPanicOnNonPositive(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	var s Stream
	mustPanic("Intn(0)", func() { s.Intn(0) })
	mustPanic("Int63n(0)", func() { s.Int63n(0) })
	mustPanic("Intn(-1)", func() { s.Intn(-1) })
	mustPanic("Int63n(-1)", func() { s.Int63n(-1) })
}

// NormFloat64 and ExpFloat64 have the moments of their distributions:
// over 10⁶ draws the standard error of each mean is 0.001 and of each
// variance under 0.003, so these tolerances hold with a wide margin.
func TestDistributionMoments(t *testing.T) {
	const n = 1000000
	moments := func(draw func() float64) (mean, variance float64) {
		var sum, sq float64
		for i := 0; i < n; i++ {
			x := draw()
			sum += x
			sq += x * x
		}
		mean = sum / n
		return mean, sq/n - mean*mean
	}
	s := New(11, 0)
	if m, v := moments(s.NormFloat64); math.Abs(m) > 0.01 || math.Abs(v-1) > 0.02 {
		t.Errorf("NormFloat64: mean %.4f variance %.4f, want 0 and 1", m, v)
	}
	if m, v := moments(s.ExpFloat64); math.Abs(m-1) > 0.01 || math.Abs(v-1) > 0.03 {
		t.Errorf("ExpFloat64: mean %.4f variance %.4f, want 1 and 1", m, v)
	}
	if m, v := moments(s.Float64); math.Abs(m-0.5) > 0.01 || math.Abs(v-1.0/12) > 0.01 {
		t.Errorf("Float64: mean %.4f variance %.4f, want 0.5 and 1/12", m, v)
	}
}
