package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/profile"
)

// TestCaptureCLIRoundTrip is the command-level capture round trip: a
// local time-compressed capture writes a profile file, dbox vet
// accepts it, and dbox swarm -profile FILE replays it as a profiled
// load with zero QoS-1 loss.
func TestCaptureCLIRoundTrip(t *testing.T) {
	cli := startDaemon(t)
	dir := t.TempDir()
	profPath := filepath.Join(dir, "fitted.yaml")

	err := dispatch(cli, []string{"capture",
		"-name", "clitest", "-seed", "9",
		"-duration", "30s", "-devices", "8", "-period", "500ms",
		"-speed", "max", "-o", profPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(profPath)
	if err != nil {
		t.Fatal(err)
	}
	p, err := profile.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "clitest" || len(p.Populations) == 0 {
		t.Fatalf("fitted profile = %+v", p)
	}
	// The capture is stamped with the generator's own offsets, so even
	// unpaced it recovers the fleet exactly: 8 devices, one per 500ms.
	pop := p.Populations[0]
	if len(p.Populations) != 1 || pop.Kind != "dev" || pop.Count != 8 ||
		pop.Cadence.Dist != profile.DistFixed || pop.Cadence.Mean != 500*time.Millisecond || pop.Burst != nil {
		t.Fatalf("fitted populations = %+v, want 8 dev devices on a fixed 500ms cadence", p.Populations)
	}

	// dbox vet routes the file through the profile analyzer.
	if err := dispatch(cli, []string{"vet", profPath}); err != nil {
		t.Fatalf("vet on fitted profile: %v", err)
	}

	// An unsatisfiable profile fails vet with a V018 error.
	bad := filepath.Join(dir, "bad.yaml")
	badYAML := []byte("profile: dead\nseed: 1\npopulations:\n  - kind: x\n    count: 1\n    cadence:\n      dist: fixed\n      mean_ms: 0\n")
	if err := os.WriteFile(bad, badYAML, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := dispatch(cli, []string{"vet", bad}); err == nil {
		t.Fatal("vet accepted an unsatisfiable profile")
	}

	// The fitted profile drives a local profiled swarm run.
	if err := dispatch(cli, []string{"swarm",
		"-profile", profPath, "-duration", "2s", "-workers", "2", "-nodes", "1",
	}); err != nil {
		t.Fatalf("swarm -profile FILE: %v", err)
	}
}

// TestCaptureCLICommitLocal covers -commit with a local repository.
func TestCaptureCLICommitLocal(t *testing.T) {
	cli := startDaemon(t)
	repoDir := filepath.Join(t.TempDir(), "repo")
	err := dispatch(cli, []string{"capture",
		"-name", "committed", "-seed", "3",
		"-duration", "10s", "-devices", "4", "-period", "250ms",
		"-commit", "-repo", repoDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(repoDir, "refs", "profiles", "committed", "v1"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("committed profile ref missing: %v %v", matches, err)
	}

	// -commit without a repo in local mode is a usage error.
	if err := dispatch(cli, []string{"capture", "-devices", "4", "-duration", "1s", "-commit"}); err == nil {
		t.Fatal("local -commit without -repo accepted")
	}
}
