package clock

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// drive runs s.Drive until the test ends, returning once the driver
// is running, so SleepUntil's fast path is open.
func drive(t *testing.T, s *Scaled) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		s.Drive()
		close(done)
	}()
	t.Cleanup(func() {
		s.Stop()
		<-done
	})
	for !s.driving.Load() {
		runtime.Gosched()
	}
}

// armed reports how many timers v has ever armed.
func armed(v *Virtual) uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.seq
}

// waitArmed blocks until v's earliest pending timer is at at: a sleeper
// on another goroutine has parked.
func waitArmed(t *testing.T, v *Virtual, at time.Time) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if next, ok := v.NextAt(); ok && next.Equal(at) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no timer armed at %v", at)
		}
		runtime.Gosched()
	}
}

// sleepAsync runs SleepUntil on its own goroutine.
func sleepAsync(ctx context.Context, clk Clock, at time.Time) <-chan error {
	ch := make(chan error, 1)
	go func() { ch <- SleepUntil(ctx, clk, at) }()
	return ch
}

func recvErr(t *testing.T, ch <-chan error) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("SleepUntil did not return")
		return nil
	}
}

// TestSleepUntilGrantsInPlace: at SpeedMax under Drive, a wait nothing
// precedes moves the clock to its instant and arms no timer.
func TestSleepUntilGrantsInPlace(t *testing.T) {
	s := NewScaled(SpeedMax, nil)
	drive(t, s)
	before := armed(s.Virtual)
	for i := 1; i <= 3; i++ {
		at := Epoch.Add(time.Duration(i) * 10 * time.Millisecond)
		if err := SleepUntil(context.Background(), s, at); err != nil {
			t.Fatal(err)
		}
		if got := s.Now(); !got.Equal(at) {
			t.Fatalf("Now = %v after SleepUntil(%v)", got, at)
		}
	}
	if _, ok := s.NextAt(); ok {
		t.Fatal("a granted wait left a timer armed")
	}
	if n := armed(s.Virtual) - before; n != 0 {
		t.Fatalf("granted waits armed %d timers, want 0", n)
	}
	// An instant already passed is no wait at all.
	if err := SleepUntil(context.Background(), s, Epoch); err != nil || !s.Now().Equal(Epoch.Add(30*time.Millisecond)) {
		t.Fatalf("SleepUntil(past) = %v, Now = %v", err, s.Now())
	}
}

// TestSleepUntilYieldsToEarlierTimer: an armed timer before the wait's
// instant fires first, at its own time, and the sleeper resumes after.
func TestSleepUntilYieldsToEarlierTimer(t *testing.T) {
	s := NewScaled(SpeedMax, nil)
	early, at := Epoch.Add(5*time.Millisecond), Epoch.Add(20*time.Millisecond)
	sawAt := make(chan time.Time, 1)
	s.AfterFunc(early.Sub(Epoch), func() { sawAt <- s.Now() })
	// Whatever the driver has reached, the grant refuses a wait past an
	// armed timer.
	s.driving.Store(true)
	if s.grant(at) || s.grant(early) {
		t.Fatal("a wait at or past an armed timer was granted in place")
	}
	s.driving.Store(false)
	drive(t, s)
	if err := SleepUntil(context.Background(), s, at); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-sawAt:
		if !got.Equal(early) {
			t.Fatalf("earlier timer saw Now = %v, want %v", got, early)
		}
	default:
		t.Fatal("sleeper resumed before the earlier timer fired")
	}
	if got := s.Now(); !got.Equal(at) {
		t.Fatalf("Now = %v after the sleep, want %v", got, at)
	}
}

// TestSleepUntilParksOffTheFastPath: at a finite factor, before
// Drive starts and under Run the wait arms a timer and the clock moves
// only by the driver; Run stops at its deadline with a sleeper parked
// past it.
func TestSleepUntilParksOffTheFastPath(t *testing.T) {
	at := Epoch.Add(10 * time.Millisecond)

	t.Run("finite factor", func(t *testing.T) {
		s := NewScaled(1000, nil)
		drive(t, s)
		before := armed(s.Virtual)
		if err := SleepUntil(context.Background(), s, at); err != nil || !s.Now().Equal(at) {
			t.Fatalf("SleepUntil = %v, Now = %v", err, s.Now())
		}
		if armed(s.Virtual) == before {
			t.Fatal("a paced wait was granted in place")
		}
	})

	t.Run("before Drive", func(t *testing.T) {
		s := NewScaled(SpeedMax, nil)
		done := sleepAsync(context.Background(), s, at)
		waitArmed(t, s.Virtual, at)
		if !s.Now().Equal(Epoch) {
			t.Fatalf("undriven clock moved to %v", s.Now())
		}
		drive(t, s)
		if err := recvErr(t, done); err != nil || !s.Now().Equal(at) {
			t.Fatalf("after Drive: %v, Now = %v", err, s.Now())
		}
	})

	t.Run("under Run", func(t *testing.T) {
		s := NewScaled(SpeedMax, nil)
		ctx, cancel := context.WithCancel(context.Background())
		inside := sleepAsync(context.Background(), s, at)
		waitArmed(t, s.Virtual, at)
		past := sleepAsync(ctx, s, at.Add(time.Second))
		waitArmed(t, s.Virtual, at) // still the earliest
		deadline := Epoch.Add(500 * time.Millisecond)
		s.Run(deadline, nil)
		if err := recvErr(t, inside); err != nil {
			t.Fatal(err)
		}
		if got := s.Now(); !got.Equal(deadline) {
			t.Fatalf("Run ended at %v, want its deadline %v", got, deadline)
		}
		select {
		case err := <-past:
			t.Fatalf("a sleeper past Run's deadline returned %v", err)
		default:
		}
		cancel()
		if err := recvErr(t, past); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled sleeper returned %v", err)
		}
		if next, ok := s.NextAt(); ok {
			t.Fatalf("a cancelled wait left a timer armed at %v", next)
		}
	})
}

// TestSleepUntilWaitsOutRunningCallback: while a Step callback runs, a
// concurrent wait parks instead of moving the clock under it.
func TestSleepUntilWaitsOutRunningCallback(t *testing.T) {
	s := NewScaled(SpeedMax, nil)
	fire, at := Epoch.Add(5*time.Millisecond), Epoch.Add(8*time.Millisecond)
	in, release := make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	endAt := make(chan time.Time, 1)
	s.AfterFunc(fire.Sub(Epoch), func() {
		close(in)
		<-release
		endAt <- s.Now()
	})
	drive(t, s)
	// Cleanups run last-in first-out: a failing test frees the driver
	// from the callback before stopping it.
	t.Cleanup(func() { releaseOnce.Do(func() { close(release) }) })
	<-in
	done := sleepAsync(context.Background(), s, at)
	waitArmed(t, s.Virtual, at)
	if got := s.Now(); !got.Equal(fire) {
		t.Fatalf("Now = %v inside the callback, want %v", got, fire)
	}
	releaseOnce.Do(func() { close(release) })
	if got := <-endAt; !got.Equal(fire) {
		t.Fatalf("callback ended at Now = %v, want %v", got, fire)
	}
	if err := recvErr(t, done); err != nil || !s.Now().Equal(at) {
		t.Fatalf("sleeper: %v, Now = %v", err, s.Now())
	}
}

// TestSleepUntilCancel: cancelling ctx returns ctx.Err() on both paths
// and leaves nothing armed.
func TestSleepUntilCancel(t *testing.T) {
	at := Epoch.Add(time.Second)

	t.Run("fast path", func(t *testing.T) {
		s := NewScaled(SpeedMax, nil)
		drive(t, s)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := SleepUntil(ctx, s, at); !errors.Is(err, context.Canceled) {
			t.Fatalf("SleepUntil on a cancelled ctx = %v", err)
		}
		if !s.Now().Equal(Epoch) {
			t.Fatalf("a cancelled wait moved the clock to %v", s.Now())
		}
		if _, ok := s.NextAt(); ok {
			t.Fatal("a cancelled wait left a timer armed")
		}
	})

	for name, clk := range map[string]Clock{
		"scaled undriven": NewScaled(SpeedMax, nil),
		"virtual":         NewVirtual(),
	} {
		t.Run("park path/"+name, func(t *testing.T) {
			v := clk.(interface{ NextAt() (time.Time, bool) })
			ctx, cancel := context.WithCancel(context.Background())
			done := sleepAsync(ctx, clk, at)
			for {
				if _, ok := v.NextAt(); ok {
					break
				}
				runtime.Gosched()
			}
			cancel()
			if err := recvErr(t, done); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled sleeper returned %v", err)
			}
			if next, ok := v.NextAt(); ok {
				t.Fatalf("a cancelled wait left a timer armed at %v", next)
			}
		})
	}

	t.Run("park path/system", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		defer cancel()
		if err := SleepUntil(ctx, System, System.Now().Add(time.Hour)); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("SleepUntil on System = %v", err)
		}
	})
}
