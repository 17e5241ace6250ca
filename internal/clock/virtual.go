package clock

import (
	"container/heap"
	"sync"
	"sync/atomic"
	"time"
)

// Epoch is the fixed virtual start time of every deterministic run.
var Epoch = time.Unix(0, 0).UTC()

// Virtual is a deterministic discrete-event clock with a timer
// min-heap. Timers fire in (time, schedule-order) order, so
// simultaneous timers resolve deterministically. The replay engine
// drives it single-threaded through Schedule/ScheduleAt/Step; the
// Clock interface methods (After, AfterFunc, NewTicker, Sleep) let the
// same runtime code that runs on System run under a Virtual driven by
// another goroutine.
type Virtual struct {
	mu     sync.Mutex
	now    time.Time
	seq    uint64
	timers timerHeap
	// notify, when set, is invoked (under mu — it must not block)
	// every time a timer is pushed. Scaled uses it to wake a paced
	// driver sleeping toward a deadline that a newly armed, earlier
	// timer has just invalidated.
	notify func()
	// firing counts Step callbacks in flight. It rises under mu, so a
	// grant that reads zero under mu runs before the next pop or after
	// the last callback returned; a callback never sees Now move past
	// its own firing time.
	firing atomic.Int32
}

// NewVirtual returns a virtual clock at Epoch with no timers armed.
func NewVirtual() *Virtual {
	return &Virtual{now: Epoch}
}

type vtimer struct {
	at      time.Time
	seq     uint64
	fn      func()
	stopped bool
}

// Now is the injectable time source (trace.NewLogAt).
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Since returns the virtual time elapsed since t.
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// Elapsed returns the virtual time since run start.
func (v *Virtual) Elapsed() time.Duration { return v.Now().Sub(Epoch) }

// Schedule arms fn to fire after d (relative to virtual now).
func (v *Virtual) Schedule(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	v.mu.Lock()
	v.push(v.now.Add(d), fn)
	v.mu.Unlock()
}

// ScheduleAt arms fn to fire at an absolute offset from run start.
func (v *Virtual) ScheduleAt(offset time.Duration, fn func()) {
	at := Epoch.Add(offset)
	v.mu.Lock()
	if at.Before(v.now) {
		at = v.now
	}
	v.push(at, fn)
	v.mu.Unlock()
}

// push appends a timer; callers hold v.mu.
func (v *Virtual) push(at time.Time, fn func()) *vtimer {
	v.seq++
	t := &vtimer{at: at, seq: v.seq, fn: fn}
	heap.Push(&v.timers, t)
	if v.notify != nil {
		v.notify()
	}
	return t
}

// setNotify installs the push-notification hook. fn runs with v.mu
// held and must not block (Scaled passes a non-blocking channel send).
func (v *Virtual) setNotify(fn func()) {
	v.mu.Lock()
	v.notify = fn
	v.mu.Unlock()
}

// NextAt reports the firing time of the earliest pending timer.
// Stopped timers at the head of the heap are discarded on the way. The
// second result is false when no timer is armed.
func (v *Virtual) NextAt() (time.Time, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for len(v.timers) > 0 {
		t := v.timers[0]
		if t.stopped {
			heap.Pop(&v.timers)
			continue
		}
		return t.at, true
	}
	return time.Time{}, false
}

// Step pops and fires the earliest timer at or before the deadline,
// advancing virtual now to its firing time. It reports whether a timer
// fired. The timer's fn runs outside the clock lock, so it may arm
// further timers.
func (v *Virtual) Step(deadline time.Time) bool {
	for {
		v.mu.Lock()
		if len(v.timers) == 0 {
			v.mu.Unlock()
			return false
		}
		t := v.timers[0]
		if t.at.After(deadline) {
			v.mu.Unlock()
			return false
		}
		heap.Pop(&v.timers)
		if t.stopped {
			v.mu.Unlock()
			continue
		}
		if t.at.After(v.now) {
			v.now = t.at
		}
		v.firing.Add(1)
		v.mu.Unlock()
		t.fn()
		v.firing.Add(-1)
		return true
	}
}

// AdvanceTo moves virtual now forward to t without firing timers
// (the run-window close: Step has already drained everything due).
func (v *Virtual) AdvanceTo(t time.Time) {
	v.mu.Lock()
	if t.After(v.now) {
		v.now = t
	}
	v.mu.Unlock()
}

// grantIdle moves now to at when nothing armed fires at or before it
// and no Step callback is running, reporting whether the clock reads at
// (or later) on return. It is SleepUntil's in-place grant; only Scaled
// calls it, while its unpaced driver runs.
func (v *Virtual) grantIdle(at time.Time) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	if !at.After(v.now) {
		return true
	}
	if v.firing.Load() > 0 {
		return false
	}
	for len(v.timers) > 0 && v.timers[0].stopped {
		heap.Pop(&v.timers)
	}
	if len(v.timers) > 0 && !v.timers[0].at.After(at) {
		return false
	}
	v.now = at
	return true
}

// afterFuncAt arms fn at the absolute instant at, so a wait does not
// drift when another goroutine moves the clock between a read and the
// arm. It arms nothing and returns nil when at is not after now.
func (v *Virtual) afterFuncAt(at time.Time, fn func()) Timer {
	v.mu.Lock()
	defer v.mu.Unlock()
	if !at.After(v.now) {
		return nil
	}
	return &virtualTimer{v: v, t: v.push(at, fn)}
}

// Sleep blocks until d of virtual time has been stepped past by the
// driving goroutine. Calling it from the goroutine that drives Step
// deadlocks — discrete-event code should Schedule instead.
func (v *Virtual) Sleep(d time.Duration) { <-v.After(d) }

// After returns a channel receiving the virtual firing time once d has
// elapsed on the clock.
func (v *Virtual) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	v.Schedule(d, func() { ch <- v.Now() })
	return ch
}

// AfterFunc arms fn to run after d of virtual time.
func (v *Virtual) AfterFunc(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	v.mu.Lock()
	t := v.push(v.now.Add(d), fn)
	v.mu.Unlock()
	return &virtualTimer{v: v, t: t}
}

type virtualTimer struct {
	v *Virtual
	t *vtimer
}

func (vt *virtualTimer) Stop() bool {
	vt.v.mu.Lock()
	defer vt.v.mu.Unlock()
	was := !vt.t.stopped
	vt.t.stopped = true
	return was
}

// NewTicker returns a ticker firing every d of virtual time. Like
// time.Ticker, a slow receiver drops ticks rather than queueing them.
func (v *Virtual) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("clock: non-positive ticker interval")
	}
	t := &virtualTicker{v: v, d: d, ch: make(chan time.Time, 1)}
	t.arm()
	return t
}

type virtualTicker struct {
	v  *Virtual
	d  time.Duration
	ch chan time.Time

	mu      sync.Mutex
	stopped bool
	next    *vtimer // the armed firing; guarded by mu
}

func (t *virtualTicker) arm() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopped {
		return
	}
	t.v.mu.Lock()
	t.next = t.v.push(t.v.now.Add(t.d), t.fire)
	t.v.mu.Unlock()
}

func (t *virtualTicker) fire() {
	t.mu.Lock()
	stopped := t.stopped
	t.mu.Unlock()
	if stopped {
		return
	}
	select {
	case t.ch <- t.v.Now():
	default:
	}
	t.arm()
}

func (t *virtualTicker) C() <-chan time.Time { return t.ch }

// Stop disarms the pending firing too, so a stopped ticker leaves no
// timer on the clock (NextAt no longer sees it).
func (t *virtualTicker) Stop() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stopped = true
	if t.next != nil {
		t.v.mu.Lock()
		t.next.stopped = true
		t.v.mu.Unlock()
	}
}

// heap invariant: order timers by (at, seq).
type timerHeap []*vtimer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)   { *h = append(*h, x.(*vtimer)) }
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}
