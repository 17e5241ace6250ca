package analysis_test

import (
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analyzertest"
)

func fixture(parts ...string) string {
	return filepath.Join(append([]string{"testdata"}, parts...)...)
}

func TestWallclockRuntimePackage(t *testing.T) {
	analyzertest.Run(t, analysis.Wallclock, fixture("wallclock", "runtime"), "repro/internal/broker")
}

// TestWallclockScaledDriver pins the time-compression domain split:
// a runtime package pacing schedules on the injected clock may reach
// for clock.System to bound wall-domain work (reconnect dials, pod
// handoffs), but any direct time-package read in the same driver is
// still a determinism leak.
func TestWallclockScaledDriver(t *testing.T) {
	analyzertest.Run(t, analysis.Wallclock, fixture("wallclock", "scaled"), "repro/internal/core")
}

// TestWallclockSelectWait pins the one-wait rule: a select case on an
// injected clock's After is a finding pointing at clock.SleepUntil.
func TestWallclockSelectWait(t *testing.T) {
	analyzertest.Run(t, analysis.Wallclock, fixture("wallclock", "selectwait"), "repro/internal/swarm")
}

func TestWallclockExemptPackage(t *testing.T) {
	analyzertest.Run(t, analysis.Wallclock, fixture("wallclock", "exempt"), "repro/internal/yamlite")
}

func TestErrwrapDecoder(t *testing.T) {
	analyzertest.Run(t, analysis.Errwrap, fixture("errwrap", "broker"), "repro/internal/broker")
}

func TestErrwrapExemptPackage(t *testing.T) {
	analyzertest.Run(t, analysis.Errwrap, fixture("errwrap", "exempt"), "repro/internal/rest")
}

func TestMetricname(t *testing.T) {
	analyzertest.Run(t, analysis.Metricname, fixture("metricname"), "repro/internal/obs")
}

func TestSleepytest(t *testing.T) {
	analyzertest.Run(t, analysis.Sleepytest, fixture("sleepytest"), "repro/internal/broker")
}

func TestMathrandRuntimePackage(t *testing.T) {
	analyzertest.Run(t, analysis.Mathrand, fixture("mathrand", "runtime"), "repro/internal/digi")
}

func TestMathrandBenchExempt(t *testing.T) {
	analyzertest.Run(t, analysis.Mathrand, fixture("mathrand", "bench"), "repro/bench")
}

// TestDeadcode pins the reachability rules on a fixture module: a main
// package and the root facade are roots, a dead exported func and a
// dead unexported chain are reported, an error method is kept by
// interface satisfaction, a package only tests import is skipped, and
// an allow directive keeps a declaration and what it calls.
func TestDeadcode(t *testing.T) {
	analyzertest.RunModule(t, analysis.Deadcode, fixture("deadcode"))
}

// TestDeadcodePartialPattern: a pattern that loads no main package has
// no roots, so it reports nothing and its allow directives are not
// flagged unused.
func TestDeadcodePartialPattern(t *testing.T) {
	findings, err := analysis.Run(fixture("deadcode"), []string{"./internal/lib"}, []*analysis.Analyzer{analysis.Deadcode})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

func TestAllowDirectiveHygiene(t *testing.T) {
	analyzertest.Run(t, analysis.Sleepytest, fixture("allow"), "repro/internal/broker")
}

// TestRepoIsClean is the self-gate: the multichecker over the whole
// repo must report nothing. This is the same bar CI's analyze job
// enforces via `dbox analyze ./...`.
func TestRepoIsClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	findings, err := analysis.Run(root, nil, analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

func TestRunPatternScoping(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	// A subtree pattern must load without error and stay clean too.
	findings, err := analysis.Run(root, []string{"./internal/broker"}, analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Errorf("broker-only run: %v", findings)
	}
}
