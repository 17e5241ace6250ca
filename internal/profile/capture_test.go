package profile

import (
	"bytes"
	"math"
	"sort"
	"testing"
	"time"
)

// feed walks a profile's schedule into a capture as if it were live
// traffic: every sampled message lands in global time order at its
// scheduled offset.
func feed(t *testing.T, cap *Capture, p *Profile, devices int, duration time.Duration) {
	t.Helper()
	type ev struct {
		at      time.Duration
		topic   string
		payload []byte
	}
	var evs []ev
	s, err := Compile(p, devices, 0)
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < s.Devices(); d++ {
		topic := s.DeviceTopic("swarm", d)
		for {
			at, payload := s.NextFire(d)
			if at >= duration {
				break
			}
			evs = append(evs, ev{at, topic, payload})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	for _, e := range evs {
		cap.ObserveAt(e.at, e.topic, e.payload)
	}
}

// TestCaptureRoundTrip is the acceptance property in miniature:
// capture a run, fit a profile, replay the fitted profile with its
// seed, and the per-topic-class message counts agree within 5%.
func TestCaptureRoundTrip(t *testing.T) {
	src := &Profile{
		Name: "src",
		Seed: 21,
		Populations: []Population{
			{Kind: "thermostat", Count: 8, Cadence: Cadence{Dist: DistFixed, Mean: 250 * time.Millisecond},
				Fields: []Field{{Name: "temp_c", Gen: GenSine, Min: 18, Max: 26, Period: time.Minute}}},
			{Kind: "meter", Count: 5, Cadence: Cadence{Dist: DistFixed, Mean: 100 * time.Millisecond},
				Fields: []Field{{Name: "kwh", Gen: GenRandomWalk, Min: 0, Max: 10}}},
		},
	}
	const duration = 60 * time.Second
	cap := NewCapture()
	feed(t, cap, src, 0, duration)

	observed := cap.ClassCounts()
	if len(observed) != 2 {
		t.Fatalf("want 2 captured classes, got %v", observed)
	}
	fitted := cap.Fit(FitOptions{Name: "fitted", Seed: 21})
	if fitted == nil {
		t.Fatal("empty fit")
	}
	if err := fitted.Validate(); err != nil {
		t.Fatalf("fitted profile invalid: %v", err)
	}
	if probs := fitted.Unsatisfiable(); len(probs) > 0 {
		t.Fatalf("fitted profile unsatisfiable: %v", probs)
	}
	// Round-trip through YAML: the fitted object must be committable.
	data, err := Marshal(fitted)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := ExpectedCounts(back, 0, 0, duration)
	if err != nil {
		t.Fatal(err)
	}
	for cls, want := range observed {
		got := replayed[cls]
		if want == 0 {
			t.Fatalf("class %s observed zero messages", cls)
		}
		if delta := math.Abs(float64(got-want)) / float64(want); delta > 0.05 {
			t.Errorf("class %s: captured %d, replay %d (%.1f%% off, budget 5%%)",
				cls, want, got, delta*100)
		}
	}
	// Device counts round-trip exactly: distinct topics per class.
	for _, pop := range back.Populations {
		var want int
		for _, sp := range src.Populations {
			if sp.Kind == pop.Kind {
				want = sp.Count
			}
		}
		if pop.Count != want {
			t.Errorf("class %s fitted %d devices, want %d", pop.Kind, pop.Count, want)
		}
	}
	// Field schema survives: thermostat keeps a numeric temp_c within
	// the source bounds.
	for _, pop := range back.Populations {
		if pop.Kind != "thermostat" {
			continue
		}
		if len(pop.Fields) == 0 || pop.Fields[0].Name != "temp_c" {
			t.Fatalf("thermostat lost its temp_c field: %+v", pop.Fields)
		}
		f := pop.Fields[0]
		if f.Min < 17.9 || f.Max > 26.1 {
			t.Errorf("temp_c range [%g, %g] escaped the source [18, 26]", f.Min, f.Max)
		}
	}
}

// TestCaptureFitsPoisson checks the distribution chooser: exponential
// gaps must fit as poisson, constant gaps as fixed.
func TestCaptureFitsPoisson(t *testing.T) {
	src := &Profile{
		Name: "p",
		Seed: 4,
		Populations: []Population{
			{Kind: "rnd", Count: 6, Cadence: Cadence{Dist: DistPoisson, Mean: 100 * time.Millisecond}},
			{Kind: "tick", Count: 6, Cadence: Cadence{Dist: DistFixed, Mean: 100 * time.Millisecond}},
		},
	}
	cap := NewCapture()
	feed(t, cap, src, 0, 30*time.Second)
	fitted := cap.Fit(FitOptions{Name: "f"})
	dists := map[string]string{}
	for _, pop := range fitted.Populations {
		dists[pop.Kind] = pop.Cadence.Dist
	}
	if dists["rnd"] != DistPoisson {
		t.Errorf("exponential gaps fitted as %q, want poisson", dists["rnd"])
	}
	if dists["tick"] != DistFixed {
		t.Errorf("constant gaps fitted as %q, want fixed", dists["tick"])
	}
}

// TestCaptureObserveAtNeedsNoClock feeds one schedule twice: in global
// time order, and device by device in reverse. Both fit the same
// profile — the offset handed to ObserveAt is all the capture needs,
// whatever the delivery order.
func TestCaptureObserveAtNeedsNoClock(t *testing.T) {
	src := &Profile{
		Name: "p",
		Seed: 9,
		Populations: []Population{
			{Kind: "rnd", Count: 6, Cadence: Cadence{Dist: DistPoisson, Mean: 100 * time.Millisecond},
				Firmware: map[string]float64{"1.0": 0.5, "2.0": 0.5}},
			{Kind: "tick", Count: 6, Cadence: Cadence{Dist: DistFixed, Mean: 100 * time.Millisecond, Spread: true},
				Fields: []Field{{Name: "v", Gen: GenRandomWalk, Min: 0, Max: 1}}},
		},
	}
	const duration = 30 * time.Second
	ordered := NewCapture()
	feed(t, ordered, src, 0, duration)

	stamped := NewCapture()
	s, err := Compile(src, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for d := s.Devices() - 1; d >= 0; d-- {
		for at, payload := s.NextFire(d); at < duration; at, payload = s.NextFire(d) {
			stamped.ObserveAt(at, s.DeviceTopic("swarm", d), payload)
		}
	}
	want, err := Marshal(ordered.Fit(FitOptions{Name: "f", Seed: 9}))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Marshal(stamped.Fit(FitOptions{Name: "f", Seed: 9}))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("device-by-device fit diverges from the time-ordered fit:\n%s\nwant:\n%s", got, want)
	}
}

// TestCaptureDetectsBurst feeds a synthetic stream that is quiet for
// most of the window and 10x hot for one second: the fit must carry a
// Burst entry.
func TestCaptureDetectsBurst(t *testing.T) {
	cap := NewCapture()
	at := time.Duration(0)
	payload := []byte(`{"seq":1,"v":0.5}`)
	for at < 20*time.Second {
		if at >= 10*time.Second && at < 11*time.Second {
			at += 20 * time.Millisecond // 50 msg/s burst
		} else {
			at += 500 * time.Millisecond // 2 msg/s baseline
		}
		cap.ObserveAt(at, "swarm/cam-0/status", payload)
	}
	fitted := cap.Fit(FitOptions{Name: "b"})
	if len(fitted.Populations) != 1 {
		t.Fatalf("want one population, got %+v", fitted.Populations)
	}
	b := fitted.Populations[0].Burst
	if b == nil {
		t.Fatal("burst not detected")
	}
	if b.Factor < 3 {
		t.Fatalf("burst factor %g too small", b.Factor)
	}
}

// TestCaptureFirmwareSkew checks the fw field lands as firmware shares
// rather than an enum field.
func TestCaptureFirmwareSkew(t *testing.T) {
	src := &Profile{
		Name: "fw",
		Seed: 8,
		Populations: []Population{{
			Kind: "lock", Count: 20,
			Firmware: map[string]float64{"2.0": 0.75, "2.1": 0.25},
			Cadence:  Cadence{Dist: DistFixed, Mean: 500 * time.Millisecond},
		}},
	}
	cap := NewCapture()
	feed(t, cap, src, 0, 20*time.Second)
	fitted := cap.Fit(FitOptions{Name: "f"})
	fw := fitted.Populations[0].Firmware
	if len(fw) != 2 {
		t.Fatalf("want 2 firmware versions, got %v", fw)
	}
	if fw["2.0"] < 0.5 || fw["2.0"] > 0.95 {
		t.Errorf("version 2.0 share %g far from the 0.75 skew", fw["2.0"])
	}
	if len(fitted.Populations[0].Fields) != 0 {
		t.Errorf("fw leaked into the field schema: %+v", fitted.Populations[0].Fields)
	}
}
