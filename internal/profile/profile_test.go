package profile

import (
	"strings"
	"testing"
	"time"
)

// testProfile is a three-population mix exercising every generator and
// distribution at least once.
func testProfile() *Profile {
	return &Profile{
		Name: "test-city",
		Seed: 42,
		Populations: []Population{
			{
				Kind:     "thermostat",
				Count:    6,
				Firmware: map[string]float64{"1.0": 0.7, "1.1": 0.3},
				Cadence:  Cadence{Dist: DistPoisson, Mean: 200 * time.Millisecond},
				Fields: []Field{
					{Name: "temp_c", Gen: GenSine, Min: 18, Max: 26, Period: time.Hour},
					{Name: "mode", Gen: GenEnum, States: []string{"idle", "heat", "cool"}, PChange: 0.2},
				},
			},
			{
				Kind:    "meter",
				Count:   4,
				Cadence: Cadence{Dist: DistFixed, Mean: 100 * time.Millisecond, Spread: true},
				Fields: []Field{
					{Name: "kwh", Gen: GenRandomWalk, Min: 0, Max: 10, Step: 0.1},
				},
			},
			{
				Kind:    "camera",
				Weight:  1,
				Cadence: Cadence{Dist: DistLognormal, Mean: 300 * time.Millisecond, Sigma: 0.4},
				Burst:   &Burst{Every: 2 * time.Second, Length: 200 * time.Millisecond, Factor: 5},
				Fields: []Field{
					{Name: "motion", Gen: GenSpike, Min: 0, Max: 1, P: 0.05},
				},
			},
		},
	}
}

func TestMarshalParseRoundTrip(t *testing.T) {
	p := testProfile()
	data, err := Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatalf("fitted YAML does not parse back: %v\n%s", err, data)
	}
	// The round-tripped profile must compile to the identical schedule:
	// digest equality is a stronger check than struct equality because
	// it covers everything the sampler consumes.
	d1, n1, err := Digest(p, 12, 0, 3*time.Second, "swarm")
	if err != nil {
		t.Fatal(err)
	}
	d2, n2, err := Digest(back, 12, 0, 3*time.Second, "swarm")
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 || n1 != n2 {
		t.Fatalf("round-trip changed the schedule: %s/%d vs %s/%d", d1, n1, d2, n2)
	}
	if n1 == 0 {
		t.Fatal("empty schedule")
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Profile)
		want string
	}{
		{"no name", func(p *Profile) { p.Name = "" }, "name required"},
		{"no populations", func(p *Profile) { p.Populations = nil }, "at least one population"},
		{"slash kind", func(p *Profile) { p.Populations[0].Kind = "a/b" }, "single MQTT topic level"},
		{"dup kind", func(p *Profile) { p.Populations[1].Kind = "thermostat" }, "duplicate population kind"},
		{"bad dist", func(p *Profile) { p.Populations[0].Cadence.Dist = "zipf" }, "unknown cadence dist"},
		{"spread poisson", func(p *Profile) { p.Populations[0].Cadence.Spread = true }, "spread needs a fixed cadence"},
		{"spread burst", func(p *Profile) {
			p.Populations[1].Burst = &Burst{Every: time.Second, Length: 100 * time.Millisecond, Factor: 2}
		}, "spread needs a fixed cadence"},
		{"bad gen", func(p *Profile) { p.Populations[1].Fields[0].Gen = "brownian" }, "unknown generator"},
		{"enum no states", func(p *Profile) { p.Populations[0].Fields[1].States = nil }, "at least one state"},
		{"max < min", func(p *Profile) { p.Populations[1].Fields[0].Max = -1 }, "max < min"},
		{"dup field", func(p *Profile) {
			p.Populations[0].Fields = append(p.Populations[0].Fields, Field{Name: "temp_c"})
		}, "duplicate field"},
	}
	for _, tc := range cases {
		p := testProfile()
		tc.mut(p)
		err := p.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestUnsatisfiable(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Profile)
		want string
	}{
		{"zero mean", func(p *Profile) { p.Populations[0].Cadence.Mean = 0 }, "rate is <= 0"},
		{"empty diurnal", func(p *Profile) {
			p.Populations[0].Cadence.Diurnal = &Diurnal{Start: 9, End: 9}
		}, "diurnal window"},
		{"dead burst", func(p *Profile) { p.Populations[2].Burst.Factor = 0 }, "burst"},
		{"zero firmware", func(p *Profile) {
			p.Populations[0].Firmware = map[string]float64{"1.0": 0}
		}, "firmware shares sum to 0"},
		{"empty mix", func(p *Profile) {
			for i := range p.Populations {
				p.Populations[i].Count = 0
				p.Populations[i].Weight = 0
			}
		}, "population mix is empty"},
	}
	for _, tc := range cases {
		p := testProfile()
		tc.mut(p)
		probs := p.Unsatisfiable()
		found := false
		for _, pr := range probs {
			if strings.Contains(pr.Message, tc.want) {
				found = true
				if pr.Fix == "" {
					t.Errorf("%s: problem has no fix-it hint", tc.name)
				}
			}
		}
		if !found {
			t.Errorf("%s: problems %v miss substring %q", tc.name, probs, tc.want)
		}
	}
	if probs := testProfile().Unsatisfiable(); len(probs) != 0 {
		t.Fatalf("clean profile reported unsatisfiable: %v", probs)
	}
}

func TestAssignWeights(t *testing.T) {
	p := &Profile{
		Name: "w",
		Populations: []Population{
			{Kind: "a", Count: 10, Cadence: Cadence{Mean: time.Second}},
			{Kind: "b", Weight: 3, Cadence: Cadence{Mean: time.Second}},
			{Kind: "c", Weight: 1, Cadence: Cadence{Mean: time.Second}},
		},
	}
	s, err := Compile(p, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for d := 0; d < s.Devices(); d++ {
		counts[s.Kind(d)]++
	}
	if counts["a"] != 10 || counts["b"] != 15 || counts["c"] != 5 {
		t.Fatalf("mix split wrong: %v", counts)
	}
}

func TestClassOf(t *testing.T) {
	cases := map[string]string{
		"swarm/thermostat-17/status": "thermostat",
		"swarm/dev-3/status":         "dev",
		"swarm/gateway/status":       "gateway",
		"digibox/lamp-1/status":      "lamp",
		"single":                     "single",
		"a/b/c/d":                    "b",
	}
	for topic, want := range cases {
		if got := ClassOf(topic); got != want {
			t.Errorf("ClassOf(%q) = %q, want %q", topic, got, want)
		}
	}
}

func TestDiurnalWindowGates(t *testing.T) {
	p := &Profile{
		Name: "night-silent",
		Seed: 7,
		Populations: []Population{{
			Kind:    "sensor",
			Count:   3,
			Cadence: Cadence{Dist: DistFixed, Mean: time.Minute, Diurnal: &Diurnal{Start: 8, End: 18, Trough: 0.5}},
		}},
	}
	err := Walk(p, 0, 0, 24*time.Hour, func(_ int, at time.Duration, _ []byte) {
		h := at.Hours()
		if h < 8 || h >= 18.2 { // small tolerance: the gap lands just past a modulated draw
			t.Fatalf("message at hour %.2f outside the [8,18) window", h)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
