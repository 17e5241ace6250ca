package replay

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/device"
	"repro/internal/digi"
	"repro/internal/scene"
)

func exampleRegistry(t *testing.T) *digi.Registry {
	t.Helper()
	reg := digi.NewRegistry()
	if err := device.RegisterAll(reg); err != nil {
		t.Fatal(err)
	}
	if err := scene.RegisterAll(reg); err != nil {
		t.Fatal(err)
	}
	return reg
}

func loadExampleScenario(t *testing.T, name string) *Scenario {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", name, "scenario.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := ParseScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestCrossSpeedDigestEquivalence is the acceptance table: every
// example scenario recorded at speed 1, speed 100, and speed max
// yields byte-identical digests. This is the contract that lets a
// paced live run be verified against an unpaced CI fixture.
func TestCrossSpeedDigestEquivalence(t *testing.T) {
	reg := exampleRegistry(t)
	for _, name := range []string{"quickstart", "smartbuilding", "chaosdrill"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sc := loadExampleScenario(t, name)
			ref, err := Record(reg, sc)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Speed != clock.SpeedMax {
				t.Fatalf("Record speed = %v, want SpeedMax", ref.Speed)
			}
			for _, speed := range []float64{100, 1} {
				res, err := RecordExec(reg, sc, ExecOptions{Speed: speed})
				if err != nil {
					t.Fatalf("speed %v: %v", speed, err)
				}
				if res.Digest != ref.Digest {
					t.Errorf("digest at speed %v diverged:\n  max: %s\n  %3v: %s",
						speed, ref.Digest, speed, res.Digest)
				}
				if len(res.Records) != len(ref.Records) {
					t.Errorf("record count at speed %v = %d, want %d",
						speed, len(res.Records), len(ref.Records))
				}
				if res.Speed != speed {
					t.Errorf("Result.Speed = %v, want %v", res.Speed, speed)
				}
				// Speed 1 must actually pace: the run covers
				// sc.Duration of scenario time, so wall time is at
				// least half of it (generous slack — pacing, not
				// precision, is the claim).
				if speed == 1 && res.Wall < sc.Duration/2 {
					t.Errorf("speed-1 run finished in %v wall for %v of scenario; pacing is not happening",
						res.Wall, sc.Duration)
				}
			}
		})
	}
}

// TestEngineCancelAborts: a cross-goroutine Cancel ends a paced run
// promptly with the cancellation error.
func TestEngineCancelAborts(t *testing.T) {
	reg := exampleRegistry(t)
	sc := loadExampleScenario(t, "quickstart")
	// Speed 0.001 would take ~500000s to finish; Cancel must end it
	// within the test timeout instead.
	e, err := NewEngineExec(reg, sc, ExecOptions{Speed: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := e.Run()
		errc <- err
	}()
	// Cancel is sticky, so it aborts the run no matter how far it has
	// gotten — including before the first pacing wait.
	e.Cancel(nil)
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("cancelled run returned nil error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled run did not return")
	}
}
