package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/digi"
	"repro/internal/model"
	"repro/internal/profile"
	"repro/internal/swarm"
)

// TestCaptureSwarmRoundTrip is the capture acceptance path at the
// core layer: a time-compressed 60-scenario-second closed-loop swarm
// run is captured, the fitted profile must reproduce the observed
// per-topic-class message counts within 5% when replayed with the
// same seed, and the profile must survive the repository's vet gate
// (CommitProfile) and a Get round trip.
func TestCaptureSwarmRoundTrip(t *testing.T) {
	tb, err := New(Options{
		Nodes:        []NodeSpec{{Name: "n0", Capacity: 8, Zone: "local"}},
		BrokerAddr:   "none",
		RESTAddr:     "none",
		TimeScale:    clock.SpeedMax,
		LocalRepoDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Stop)

	const window = 60 * time.Second
	res, err := tb.Capture(context.Background(), CaptureSpec{
		Name: "city",
		Seed: 11,
		Swarm: &SwarmSpec{
			Shards: 1,
			Load: swarm.LoadSpec{
				Profile:  swarm.ProfileClosed,
				Devices:  12,
				Period:   500 * time.Millisecond,
				Duration: window,
				Workers:  2,
				QoS:      1,
				Subs:     1,
				Seed:     11,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages == 0 || res.Report == nil || res.Report.Published != res.Messages {
		t.Fatalf("messages = %d, report = %+v; want tap to see every publish", res.Messages, res.Report)
	}
	p := res.Profile
	if err := p.Validate(); err != nil {
		t.Fatalf("fitted profile does not validate: %v", err)
	}
	if probs := p.Unsatisfiable(); len(probs) != 0 {
		t.Fatalf("fitted profile unsatisfiable: %v", probs)
	}

	// Replay accounting: the compiled sampler's expected counts per
	// class must land within 5% of what the capture observed.
	expected, err := profile.ExpectedCounts(p, 0, 11, window)
	if err != nil {
		t.Fatal(err)
	}
	for cls, observed := range res.Classes {
		got := expected[cls]
		lo := observed - observed/20
		hi := observed + observed/20
		if got < lo || got > hi {
			t.Errorf("class %s: replay would emit %d messages, captured %d (±5%% bounds [%d, %d])",
				cls, got, observed, lo, hi)
		}
	}

	// The profile commits through the vet gate and round-trips.
	ver, err := tb.CommitProfile("city", p)
	if err != nil || ver != "v1" {
		t.Fatalf("CommitProfile = %q, %v", ver, err)
	}
	back, err := tb.GetProfile("city", "")
	if err != nil {
		t.Fatal(err)
	}
	d1, n1, err := profile.Digest(p, 0, 11, window, "swarm")
	if err != nil {
		t.Fatal(err)
	}
	d2, n2, err := profile.Digest(back, 0, 11, window, "swarm")
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 || n1 != n2 {
		t.Fatalf("committed profile diverges: digest %s (%d msgs) vs %s (%d msgs)", d1, n1, d2, n2)
	}
}

// TestCaptureBrokerTap covers the no-swarm path: what a deployed digi
// publishes in a clocked window is read back from the trace and fitted.
func TestCaptureBrokerTap(t *testing.T) {
	// A finite factor (not SpeedMax): the publisher arms its next
	// timer only after each fire, so an unpaced clock could jump the
	// whole capture window before the first publish is armed.
	tb, err := New(Options{
		BrokerAddr: "127.0.0.1:0",
		RESTAddr:   "none",
		TimeScale:  200,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A fixed-cadence thermostat publishing its status every 100 ms.
	err = tb.Registry.Register(&digi.Kind{
		Schema: &model.Schema{Type: "Thermo", Version: "v1",
			Fields: map[string]model.FieldSpec{"temp_c": {Kind: model.KindFloat, Default: 21.5}}},
		DefaultInterval: 100 * time.Millisecond,
		Loop: func(c *digi.Ctx, work *model.Draft) error {
			return c.PublishFields(work, "temp_c")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Stop)
	if err := tb.Run("Thermo", "thermo-1", nil); err != nil {
		t.Fatal(err)
	}

	res, err := tb.Capture(context.Background(), CaptureSpec{
		Name:     "home",
		Duration: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages < 20 {
		t.Fatalf("captured %d messages over 10s of 100ms publishes, want ≥ 20", res.Messages)
	}
	if len(res.Profile.Populations) != 1 || res.Profile.Populations[0].Kind != "thermo" {
		t.Fatalf("populations = %+v, want one thermo", res.Profile.Populations)
	}

	// An empty window errors instead of fitting a vacuous profile.
	if _, err := tb.Capture(context.Background(), CaptureSpec{Duration: time.Millisecond, Filter: "nothing/+/here"}); err == nil {
		t.Fatal("empty capture fitted a profile")
	}
}
