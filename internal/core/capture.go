package core

// Capture: fit a scene's traced statuses or a swarm's publishes into a
// device profile — the engine behind `dbox capture` and POST
// /ctl/capture. The observed stream's per-topic-class cadences,
// payload field ranges, firmware skew, and bursts are fitted into a
// profile.Profile that round-trips through the scene repository and
// replays through the profiled swarm load discipline.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/broker"
	"repro/internal/clock"
	"repro/internal/profile"
	"repro/internal/repo"
	"repro/internal/swarm"
	"repro/internal/trace"
)

// CaptureSpec configures one Capture run.
type CaptureSpec struct {
	// Duration is the scenario-time observation window. Unused when
	// Swarm is set (the swarm load's own duration bounds the run).
	Duration time.Duration
	// Filter is the MQTT topic filter a scene capture keeps; empty
	// means every device status topic ("+/+/status").
	Filter string
	// Name names the fitted profile (FitOptions.Name).
	Name string
	// Seed seeds the fitted profile so its replays are deterministic.
	Seed int64
	// Swarm, when set, drives a swarm load session and captures the
	// traffic it publishes instead of the scene's.
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
// side, where every message carries its scheduled offset. Otherwise it
// waits out spec.Duration of scenario time (compressed by TimeScale
// like everything else) and fits the statuses the scene's own digis
// sent in that window, read from the trace log at the offsets they
// were sent. Only testbed digis log their publishes, so traffic from
// any other publisher (a raw Broker.PublishQoS, a wire client) is not
// captured. The testbed must be started.
func (tb *Testbed) Capture(ctx context.Context, spec CaptureSpec) (*CaptureResult, error) {
	if spec.Name == "" {
		spec.Name = "captured"
	}
	cap := profile.NewCapture()
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
		if err := tb.captureTrace(ctx, spec, cap); err != nil {
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

// captureTrace waits out the spec's scenario-time window, then feeds
// the capture the window's sent messages on topics matching the
// filter, each at its offset from the window's start. It reads only
// the records appended since the window opened.
func (tb *Testbed) captureTrace(ctx context.Context, spec CaptureSpec, cap *profile.Capture) error {
	tb.mu.Lock()
	live := tb.started && !tb.stopped
	tb.mu.Unlock()
	if !live {
		return fmt.Errorf("core: capture needs a started testbed")
	}
	if spec.Duration <= 0 {
		return fmt.Errorf("core: capture needs a positive duration")
	}
	filter := spec.Filter
	if filter == "" {
		filter = "+/+/status"
	}
	from, start := tb.Log.Tail()
	if err := clock.SleepUntil(ctx, tb.clk, tb.clk.Now().Add(spec.Duration)); err != nil {
		return err
	}
	tb.Log.From(from, func(r *trace.Record) {
		at := r.TS - start
		if r.Kind == trace.KindMessage && r.Direction == "send" && at <= spec.Duration &&
			broker.MatchTopic(filter, r.Topic) {
			cap.ObserveAt(at, r.Topic, []byte(r.Payload))
		}
	})
	return nil
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
