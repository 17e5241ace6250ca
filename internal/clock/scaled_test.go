package clock

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// The load-bearing invariant of time-compressed execution: a Scaled
// clock fires the same timers, in the same order, at the same virtual
// times, as a bare Virtual clock — at every pacing factor. These tests
// exercise that with randomized timer/ticker-chain/AfterFunc programs.

const (
	opAfter = iota
	opChain
	opStopped
	opKinds
)

// timerOp is one randomly generated scheduling action. Chains are
// self-rearming AfterFuncs (the shape virtual tickers reduce to), so
// the interleaving covers timers armed from inside timer callbacks.
type timerOp struct {
	kind  int
	delay time.Duration
	ticks int
}

func randProgram(r *rand.Rand, n int, horizon time.Duration) []timerOp {
	prog := make([]timerOp, n)
	for i := range prog {
		prog[i] = timerOp{
			kind: r.Intn(opKinds),
			// Beyond-horizon delays included: those must never fire.
			delay: time.Duration(r.Int63n(int64(horizon) * 5 / 4)),
			ticks: 1 + r.Intn(4),
		}
	}
	return prog
}

// install arms a program on any Clock, appending "label@virtualOffset"
// to out at each firing. Callbacks run on the driving goroutine
// (Step/Run), so out needs no locking.
func install(c Clock, prog []timerOp, out *[]string) {
	stamp := func(i int, what string) {
		*out = append(*out, fmt.Sprintf("%s-%d@%s", what, i, c.Since(Epoch)))
	}
	for i, o := range prog {
		i, o := i, o
		switch o.kind {
		case opAfter:
			c.AfterFunc(o.delay, func() { stamp(i, "after") })
		case opChain:
			var next func(step int)
			next = func(step int) {
				stamp(i, fmt.Sprintf("chain.%d", step))
				if step+1 < o.ticks {
					c.AfterFunc(o.delay, func() { next(step + 1) })
				}
			}
			c.AfterFunc(o.delay, func() { next(0) })
		case opStopped:
			t := c.AfterFunc(o.delay, func() { stamp(i, "STOPPED-FIRED") })
			t.Stop()
		}
	}
}

func runOnVirtual(prog []timerOp, horizon time.Duration) []string {
	v := NewVirtual()
	var out []string
	install(v, prog, &out)
	deadline := Epoch.Add(horizon)
	for v.Step(deadline) {
	}
	v.AdvanceTo(deadline)
	return out
}

func runOnScaled(prog []timerOp, horizon time.Duration, factor float64) []string {
	s := NewScaled(factor, nil)
	var out []string
	install(s, prog, &out)
	s.Run(Epoch.Add(horizon), nil)
	return out
}

// shrink tries to find a smaller program that still diverges, so a
// property-test failure reports a minimal reproducer.
func shrink(prog []timerOp, horizon time.Duration, factor float64) []timerOp {
	failing := prog
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(failing); i++ {
			cand := append(append([]timerOp(nil), failing[:i]...), failing[i+1:]...)
			if len(cand) == 0 {
				continue
			}
			if !reflect.DeepEqual(runOnVirtual(cand, horizon), runOnScaled(cand, horizon, factor)) {
				failing = cand
				changed = true
				break
			}
		}
	}
	return failing
}

// TestScaledFiringOrderMatchesVirtual is the satellite property test:
// seeded random programs fire identically on Virtual and on Scaled at
// several finite factors and at SpeedMax.
func TestScaledFiringOrderMatchesVirtual(t *testing.T) {
	const horizon = 40 * time.Millisecond
	// Finite factors are large so paced runs take microseconds of
	// wall time; order and timestamps are factor-invariant anyway —
	// that is the property under test.
	factors := []float64{2000, 12500, 1e6, SpeedMax}
	for seed := int64(1); seed <= 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		prog := randProgram(r, 2+r.Intn(12), horizon)
		want := runOnVirtual(prog, horizon)
		for _, f := range factors {
			got := runOnScaled(prog, horizon, f)
			if !reflect.DeepEqual(want, got) {
				min := shrink(prog, horizon, f)
				t.Fatalf("seed %d factor %s: firing sequence diverged\nvirtual: %v\nscaled:  %v\nminimal reproducer (%d ops): %+v",
					seed, FormatSpeed(f), want, got, len(min), min)
			}
		}
	}
}

// TestScaledPacesWallTime pins down that finite factors really pace:
// 80ms of virtual time at factor 4 must take at least ~15ms of wall
// time (generous slack for scheduler noise), and the same horizon at
// SpeedMax must be near-instant by comparison.
func TestScaledPacesWallTime(t *testing.T) {
	horizon := 80 * time.Millisecond
	prog := []timerOp{{kind: opChain, delay: 10 * time.Millisecond, ticks: 4}}

	start := time.Now()
	_ = runOnScaled(prog, horizon, 4)
	paced := time.Since(start)
	if paced < 15*time.Millisecond {
		t.Fatalf("factor-4 run of %v virtual finished in %v wall; pacing is not happening", horizon, paced)
	}

	start = time.Now()
	_ = runOnScaled(prog, horizon, SpeedMax)
	if unpaced := time.Since(start); unpaced > paced {
		t.Fatalf("SpeedMax run (%v) slower than factor-4 run (%v)", unpaced, paced)
	}
}

// TestScaledStopAborts: Stop from a callback ends the run without
// firing later timers and without advancing to the deadline.
func TestScaledStopAborts(t *testing.T) {
	s := NewScaled(SpeedMax, nil)
	var fired []string
	s.AfterFunc(10*time.Millisecond, func() {
		fired = append(fired, "a")
		s.Stop()
	})
	s.AfterFunc(20*time.Millisecond, func() { fired = append(fired, "b") })
	s.Run(Epoch.Add(time.Second), nil)
	if !reflect.DeepEqual(fired, []string{"a"}) {
		t.Fatalf("fired = %v, want [a]", fired)
	}
	if got := s.Elapsed(); got != 10*time.Millisecond {
		t.Fatalf("Elapsed() = %v after Stop, want 10ms", got)
	}
	if !s.Stopped() {
		t.Fatal("Stopped() = false after Stop")
	}
}

func TestParseFormatSpeed(t *testing.T) {
	cases := []struct {
		in   string
		want float64
		ok   bool
	}{
		{"max", SpeedMax, true},
		{"MAX", SpeedMax, true},
		{" inf ", SpeedMax, true},
		{"1", 1, true},
		{"100", 100, true},
		{"2.5", 2.5, true},
		{"0", 0, false},
		{"-3", 0, false},
		{"nan", 0, false},
		{"", 0, false},
		{"fast", 0, false},
	}
	for _, c := range cases {
		got, err := ParseSpeed(c.in)
		if c.ok != (err == nil) || (c.ok && got != c.want) {
			t.Errorf("ParseSpeed(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
	if got := FormatSpeed(SpeedMax); got != "max" {
		t.Errorf("FormatSpeed(SpeedMax) = %q", got)
	}
	if got := FormatSpeed(2.5); got != "2.5" {
		t.Errorf("FormatSpeed(2.5) = %q", got)
	}
	for _, round := range []float64{1, 100, 12500, 0.25} {
		back, err := ParseSpeed(FormatSpeed(round))
		if err != nil || back != round {
			t.Errorf("round trip %v -> %q -> %v, %v", round, FormatSpeed(round), back, err)
		}
	}
}

// TestNextAt: peek returns the earliest pending (non-stopped) timer.
func TestNextAt(t *testing.T) {
	v := NewVirtual()
	if _, ok := v.NextAt(); ok {
		t.Fatal("NextAt on empty heap reported a timer")
	}
	tm := v.AfterFunc(5*time.Millisecond, func() {})
	v.AfterFunc(9*time.Millisecond, func() {})
	if at, ok := v.NextAt(); !ok || !at.Equal(Epoch.Add(5*time.Millisecond)) {
		t.Fatalf("NextAt = %v, %v; want epoch+5ms", at, ok)
	}
	tm.Stop()
	if at, ok := v.NextAt(); !ok || !at.Equal(Epoch.Add(9*time.Millisecond)) {
		t.Fatalf("NextAt after Stop = %v, %v; want epoch+9ms", at, ok)
	}
}
