package core

// Capture: record live broker or swarm traffic into a fitted device
// profile — the engine behind `dbox capture` and POST /ctl/capture.
// The observed stream's per-topic-class cadences, payload field
// ranges, firmware skew, and bursts are fitted into a profile.Profile
// that round-trips through the scene repository and replays through
// the profiled swarm load discipline.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/broker"
	"repro/internal/clock"
	"repro/internal/profile"
	"repro/internal/repo"
	"repro/internal/swarm"
)

// CaptureSpec configures one Capture run.
type CaptureSpec struct {
	// Duration is the scenario-time observation window. Unused when
	// Swarm is set (the swarm load's own duration bounds the run).
	Duration time.Duration
	// Filter is the MQTT topic filter tapped when observing the live
	// broker; empty means every device status topic ("+/+/status").
	Filter string
	// Name names the fitted profile (FitOptions.Name).
	Name string
	// Seed seeds the fitted profile so its replays are deterministic.
	Seed int64
	// Swarm, when set, drives a swarm load session and captures the
	// traffic it publishes instead of tapping the live broker.
	Swarm *SwarmSpec
}

// CaptureResult is a settled capture: the fitted profile plus the
// observation accounting (and, for swarm-driven captures, the load
// session's own report).
type CaptureResult struct {
	// Profile is the fitted device-population profile.
	Profile *profile.Profile `json:"profile"`
	// Messages is the total number of observed messages.
	Messages int64 `json:"messages"`
	// Classes is the per-topic-class message count.
	Classes map[string]int64 `json:"classes"`
	// Report is the swarm session's report (swarm-driven captures).
	Report *swarm.Report `json:"report,omitempty"`
}

// Capture records traffic into a fitted profile. With spec.Swarm set
// it runs that swarm session with the capture attached on the publish
// side, where every message carries its scheduled offset; otherwise
// it subscribes to the testbed's broker for spec.Duration of scenario
// time (compressed by TimeScale like everything else) and fits what
// the scene's own digis publish. The testbed must be started.
func (tb *Testbed) Capture(ctx context.Context, spec CaptureSpec) (*CaptureResult, error) {
	if spec.Name == "" {
		spec.Name = "captured"
	}
	cap := profile.NewCapture(tb.clk)
	var rep *swarm.Report
	if spec.Swarm != nil {
		sw := *spec.Swarm
		sw.PublishTap = cap.ObserveAt
		var err error
		rep, err = tb.RunSwarm(ctx, sw)
		if err != nil {
			return nil, err
		}
	} else {
		if err := tb.captureBroker(ctx, spec, cap); err != nil {
			return nil, err
		}
	}
	if cap.Total() == 0 {
		return nil, fmt.Errorf("core: capture observed no messages; nothing to fit a profile from")
	}
	p := cap.Fit(profile.FitOptions{Name: spec.Name, Seed: spec.Seed})
	return &CaptureResult{
		Profile:  p,
		Messages: cap.Total(),
		Classes:  cap.ClassCounts(),
		Report:   rep,
	}, nil
}

// captureBroker taps the live broker with an in-process subscriber
// for the spec's scenario-time window.
func (tb *Testbed) captureBroker(ctx context.Context, spec CaptureSpec, cap *profile.Capture) error {
	tb.mu.Lock()
	live := tb.started && !tb.stopped
	tb.mu.Unlock()
	if !live || tb.Broker == nil {
		return fmt.Errorf("core: capture needs a started testbed")
	}
	if spec.Duration <= 0 {
		return fmt.Errorf("core: capture needs a positive duration")
	}
	filter := spec.Filter
	if filter == "" {
		filter = "+/+/status"
	}
	const tapID = "capture-tap"
	err := tb.Broker.SubscribeInProcess(tapID, filter, 1, func(m broker.Message) {
		cap.Observe(m.Topic, m.Payload)
	})
	if err != nil {
		return err
	}
	defer tb.Broker.UnsubscribeInProcess(tapID, filter)
	return clock.SleepUntil(ctx, tb.clk, tb.clk.Now().Add(spec.Duration))
}

// CommitProfile implements "dbox capture -commit": store the profile
// as a new version in the local repository's profiles class, behind
// the same vet pre-commit gate as setups (V018).
func (tb *Testbed) CommitProfile(name string, p *profile.Profile) (string, error) {
	if err := tb.requireRepos(false); err != nil {
		return "", err
	}
	data, err := profile.Marshal(p)
	if err != nil {
		return "", err
	}
	return tb.localRepo.Commit(repo.Profiles, name, data)
}

// GetProfile loads a committed profile from the local repository
// (empty version = latest) — the `dbox swarm -profile name` and
// recreate paths.
//
//dbox:allow deadcode -- ctl's capture tests read committed profiles back with it
func (tb *Testbed) GetProfile(name, version string) (*profile.Profile, error) {
	if err := tb.requireRepos(false); err != nil {
		return nil, err
	}
	data, err := tb.localRepo.Get(repo.Profiles, name, version)
	if err != nil {
		return nil, err
	}
	return profile.Parse(data)
}
