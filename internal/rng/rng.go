// Package rng is the runtime's one pseudo-random source: keyed
// splitmix64 streams with 8 bytes of state each. Every seeded decision
// in the testbed — a digi's Loop and Sim draws, chaos event jitter,
// reconnect backoff, broker fault sampling, profile device
// streams — draws from a Stream built by New, so a run's randomness is
// a pure function of its seeds and replays exactly.
//
// A Stream is not safe for concurrent use; its owner serialises draws
// (one goroutine, or the lock that already guards the owner's state).
package rng

import (
	"math"
	"math/bits"
)

const golden = 0x9E3779B97F4A7C15

// Stream is one splitmix64 generator. The zero value is a valid stream
// (the one New would return for a state of zero).
type Stream uint64

// New derives the stream for (seed, key) through the splitmix64
// finalizer. A plain seed+key·golden offset would make stream k+1 a
// one-draw shift of stream k — Uint64 advances the state by the same
// golden increment — collapsing a fleet of adjacent keys onto one
// shared draw sequence.
func New(seed, key uint64) Stream {
	return Stream(mix(seed + key*golden))
}

// Key derives a stream seed from an identity string (64-bit FNV-1a),
// so per-instance streams are stable functions of a name when no
// explicit seed is configured.
func Key(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Stream) Uint64() uint64 {
	*s += golden
	return mix(uint64(*s))
}

// Float64 returns a uniform draw in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal draw (Box-Muller on two
// uniforms).
func (s *Stream) NormFloat64() float64 {
	u1 := s.Float64()
	for u1 == 0 {
		u1 = s.Float64()
	}
	u2 := s.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// ExpFloat64 returns a unit-mean exponential draw.
func (s *Stream) ExpFloat64() float64 {
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return -math.Log(u)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: invalid argument to Intn")
	}
	return int(s.below(uint64(n)))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (s *Stream) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: invalid argument to Int63n")
	}
	return int64(s.below(uint64(n)))
}

// below draws uniformly from [0, n) by Lemire's multiply-shift,
// rejecting the low products that would bias small results.
func (s *Stream) below(n uint64) uint64 {
	hi, lo := bits.Mul64(s.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(s.Uint64(), n)
		}
	}
	return hi
}
