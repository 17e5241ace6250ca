package profile

import (
	"math"
	"strconv"
	"testing"
)

// FuzzParse holds the profile parser to the same contract as the rest
// of the YAML surface: arbitrary input never panics, and anything that
// parses and validates must survive a Marshal→Parse round trip with
// an identical compiled schedule.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"profile: city\npopulations:\n  - kind: a\n    count: 1\n    cadence: {mean_ms: 100}\n",
		"profile: x\nseed: 7\npopulations:\n  - kind: t\n    weight: 2\n    cadence: {dist: poisson, mean_ms: 250}\n",
		"profile: d\npopulations:\n  - kind: s\n    count: 2\n    cadence: {dist: lognormal, mean_ms: 500, sigma: 0.7, diurnal: {start_hour: 8, end_hour: 18, trough: 0.2}}\n",
		"profile: b\npopulations:\n  - kind: cam\n    count: 3\n    burst: {every_ms: 2000, length_ms: 200, factor: 5}\n    cadence: {mean_ms: 50}\n",
		"profile: f\npopulations:\n  - kind: lock\n    count: 4\n    firmware: {\"1.0\": 0.8, \"1.1\": 0.2}\n    cadence: {mean_ms: 100}\n    fields:\n      - {name: temp, gen: sine, min: 18, max: 26, period_ms: 60000}\n      - {name: mode, gen: enum, states: [on, off], p_change: 0.1}\n",
		"profile: ''\npopulations: []\n",
		"profile: deep\npopulations:\n  - kind: [nested, list]\n",
		"not a profile at all",
		"profile: s\npopulations:\n  - kind: lamp\n    count: 3\n    cadence: {mean_ms: 200, spread: true}\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Parse(data)
		if err != nil {
			return
		}
		out, err := Marshal(p)
		if err != nil {
			t.Fatalf("parsed profile does not marshal: %v", err)
		}
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("marshaled profile does not parse back: %v\n%s", err, out)
		}
		if len(back.Populations) != len(p.Populations) {
			t.Fatalf("round trip changed population count: %d vs %d",
				len(p.Populations), len(back.Populations))
		}
		// A satisfiable profile must compile identically after the
		// round trip.
		if len(p.Unsatisfiable()) == 0 {
			d1, _, err1 := Digest(p, 4, 1, 500000000, "swarm")
			d2, _, err2 := Digest(back, 4, 1, 500000000, "swarm")
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("compile divergence: %v vs %v", err1, err2)
			}
			if err1 == nil && d1 != d2 {
				t.Fatalf("round trip changed the schedule digest")
			}
		}
	})
}

// FuzzAppendFixed4 holds the payload formatter to strconv: every
// float64 formats to the same bytes as strconv.AppendFloat(v, 'f', 4,
// 64), so profile digests do not depend on which one wrote a payload.
func FuzzAppendFixed4(f *testing.F) {
	seeds := []float64{
		// Decimal ties that are not binary ties, and exact binary ties
		// (0.03125·10⁴ = 312.5) that must round half to even.
		0.00005, 0.00015, 2.5e-5, 9.99995, 99999.99995, 0.03125, 0.09375, 1.00005, 0.5e-4,
		0, math.Copysign(0, -1), -0.00001, -0.00005, -1.5, 21.3456, -40.00004999,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1023,
		1e14, -1e14, math.Nextafter(1e14, 0), -math.Nextafter(1e14, 0), math.Nextafter(1e14, 2e14),
		99999999999999.99, 0x1p46 + 0.5, 0x1p-14, 0x1p-15, 0x1p-16,
		math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64,
	}
	for _, v := range seeds {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, b uint64) {
		v := math.Float64frombits(b)
		want := strconv.AppendFloat([]byte("x"), v, 'f', 4, 64)
		if got := appendFixed4([]byte("x"), v); string(got) != string(want) {
			t.Fatalf("appendFixed4(%v) [bits %#x] = %q, strconv says %q", v, b, got, want)
		}
	})
}
