package broker

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/rng"
)

// The reconnect backoff is full jitter over a capped exponential
// window: attempt k sleeps uniform in (0, min(ReconnectMin·2^(k-1),
// ReconnectMax)], drawn from the client's seeded jitter stream. On a
// clock.Virtual the retry timeline is therefore a pure function of
// (JitterSeed, ReconnectMin, ReconnectMax): this test replays the same
// stream with rng.New and demands the virtual dial times match
// it exactly — pinning determinism, the (0, backoff] bounds, and the
// cap in one pass.
func TestReconnectFullJitterScheduleOnVirtualClock(t *testing.T) {
	b := startBroker(t, nil)

	const (
		seed     int64 = 99
		failures       = 6 // injected dial failures before one succeeds
		floor          = 10 * time.Millisecond
		cap            = 80 * time.Millisecond
	)

	v := clock.NewVirtual()
	var (
		mu       sync.Mutex
		attempts []time.Duration // virtual elapsed at each dial
	)
	states := make(chan bool, 16)
	c, err := Dial(b.Addr(), &ClientOptions{
		ClientID:      "jitterer",
		AutoReconnect: true,
		ReconnectMin:  floor,
		ReconnectMax:  cap,
		Clock:         v,
		JitterSeed:    seed,
		Dialer: func(addr string, timeout time.Duration) (net.Conn, error) {
			mu.Lock()
			n := len(attempts)
			attempts = append(attempts, v.Elapsed())
			mu.Unlock()
			if n > 0 && n <= failures { // n == 0 is the initial Dial
				return nil, errors.New("injected dial failure")
			}
			return net.DialTimeout("tcp", addr, timeout)
		},
		OnConnectionState: func(connected bool, cause error) { states <- connected },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if !b.Kick("jitterer") {
		t.Fatal("kick failed")
	}
	waitState(t, states, false, "disconnect notification")

	// Drive the virtual clock. The step deadline stays at one virtual
	// second so only reconnect timers fire (the whole schedule sums to
	// under 400ms; the stale keepalive tick parked at 15s never runs).
	// Step reports false while the loop is mid-handshake — no timer
	// armed yet — so poll with a real deadline instead of assuming
	// lockstep.
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := len(attempts)
		mu.Unlock()
		if n >= failures+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("made %d dial attempts, want %d", n, failures+2)
		}
		if !v.Step(clock.Epoch.Add(time.Second)) {
			time.Sleep(100 * time.Microsecond)
		}
	}
	waitState(t, states, true, "reconnect notification")

	mu.Lock()
	got := append([]time.Duration(nil), attempts...)
	mu.Unlock()

	if got[0] != 0 {
		t.Errorf("initial dial at virtual %v, want 0", got[0])
	}
	jit := rng.New(uint64(seed), 0)
	backoff := floor
	at := time.Duration(0)
	for k := 1; k < len(got); k++ {
		want := time.Duration(1 + jit.Int63n(int64(backoff)))
		if want <= 0 || want > backoff {
			t.Fatalf("attempt %d: wait %v outside (0, %v]", k, want, backoff)
		}
		at += want
		if got[k] != at {
			t.Errorf("attempt %d at virtual %v, want %v (window %v)", k, got[k], at, backoff)
		}
		backoff *= 2
		if backoff > cap {
			backoff = cap
		}
	}
	// failures is sized so the exponential ramp 10→20→40→80ms runs
	// into the cap with attempts to spare; if the doubling or the cap
	// regresses, the exact-match loop above has already failed, but
	// make the intent explicit.
	if backoff != cap {
		t.Fatalf("final backoff window %v never reached the cap %v", backoff, cap)
	}
}
