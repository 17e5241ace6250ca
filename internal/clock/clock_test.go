package clock

import (
	"testing"
	"time"
)

func TestSystemBasics(t *testing.T) {
	t0 := System.Now()
	System.Sleep(time.Millisecond)
	if System.Since(t0) <= 0 {
		t.Fatal("system clock did not advance across Sleep")
	}
	select {
	case <-System.After(time.Millisecond):
	case <-time.After(time.Second):
		t.Fatal("System.After never fired")
	}
	tick := System.NewTicker(time.Millisecond)
	defer tick.Stop()
	select {
	case <-tick.C():
	case <-time.After(time.Second):
		t.Fatal("System ticker never ticked")
	}
	fired := make(chan struct{})
	System.AfterFunc(time.Millisecond, func() { close(fired) })
	select {
	case <-fired:
	case <-time.After(time.Second):
		t.Fatal("System.AfterFunc never fired")
	}
}

func TestOr(t *testing.T) {
	if Or(nil) != System {
		t.Fatal("Or(nil) != System")
	}
	v := NewVirtual()
	if Or(v) != Clock(v) {
		t.Fatal("Or(v) did not pass v through")
	}
}

func TestVirtualStepOrder(t *testing.T) {
	v := NewVirtual()
	var got []int
	v.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	v.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	// Simultaneous timers fire in schedule order.
	v.Schedule(20*time.Millisecond, func() { got = append(got, 3) })
	deadline := Epoch.Add(time.Second)
	for v.Step(deadline) {
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("fire order = %v, want [1 2 3]", got)
	}
	if v.Now() != Epoch.Add(20*time.Millisecond) {
		t.Fatalf("now = %v, want epoch+20ms", v.Now())
	}
}

func TestVirtualDeadlineAndAdvance(t *testing.T) {
	v := NewVirtual()
	fired := false
	v.Schedule(time.Hour, func() { fired = true })
	if v.Step(Epoch.Add(time.Minute)) {
		t.Fatal("Step fired a timer beyond the deadline")
	}
	if fired {
		t.Fatal("timer fired early")
	}
	v.AdvanceTo(Epoch.Add(time.Minute))
	if v.Elapsed() != time.Minute {
		t.Fatalf("elapsed = %v, want 1m", v.Elapsed())
	}
	// AdvanceTo never moves backwards.
	v.AdvanceTo(Epoch)
	if v.Elapsed() != time.Minute {
		t.Fatalf("AdvanceTo moved time backwards to %v", v.Elapsed())
	}
}

func TestVirtualScheduleAtClampsToNow(t *testing.T) {
	v := NewVirtual()
	v.AdvanceTo(Epoch.Add(time.Second))
	fired := false
	v.ScheduleAt(time.Millisecond, func() { fired = true }) // in the past
	if !v.Step(Epoch.Add(2 * time.Second)) {
		t.Fatal("past-offset timer did not fire")
	}
	if !fired || v.Now() != Epoch.Add(time.Second) {
		t.Fatalf("past timer fired=%v at %v, want true at epoch+1s", fired, v.Now())
	}
}

func TestVirtualAfterFuncStop(t *testing.T) {
	v := NewVirtual()
	fired := false
	tm := v.AfterFunc(10*time.Millisecond, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("first Stop reported not pending")
	}
	if tm.Stop() {
		t.Fatal("second Stop reported still pending")
	}
	for v.Step(Epoch.Add(time.Second)) {
	}
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestVirtualTicker(t *testing.T) {
	v := NewVirtual()
	tick := v.NewTicker(10 * time.Millisecond)
	ticks := 0
	done := Epoch.Add(35 * time.Millisecond)
	for v.Step(done) {
		select {
		case <-tick.C():
			ticks++
		default:
		}
	}
	if ticks != 3 {
		t.Fatalf("ticks = %d, want 3 in 35ms at 10ms period", ticks)
	}
	tick.Stop()
	if at, ok := v.NextAt(); ok {
		t.Fatalf("stopped ticker left a timer armed at %v", at)
	}
	for v.Step(Epoch.Add(time.Second)) {
	}
	select {
	case <-tick.C():
		t.Fatal("stopped ticker delivered a tick")
	default:
	}
}

func TestVirtualAfterCrossGoroutine(t *testing.T) {
	v := NewVirtual()
	got := make(chan time.Time, 1)
	go func() { got <- <-v.After(50 * time.Millisecond) }()
	deadline := Epoch.Add(time.Second)
	for {
		select {
		case at := <-got:
			if want := Epoch.Add(50 * time.Millisecond); !at.Equal(want) {
				t.Errorf("After fired at %v, want %v", at, want)
			}
			return
		default:
		}
		if !v.Step(deadline) {
			// Timer may not be armed yet — yield and retry until the
			// goroutine schedules it.
			time.Sleep(time.Millisecond)
		}
	}
}
