package queue

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

func recv[T any](t *testing.T, q *Queue[T]) (v T, ok bool) {
	t.Helper()
	select {
	case v, ok = <-q.C:
	case <-time.After(5 * time.Second):
		t.Fatal("nothing on C")
	}
	return v, ok
}

// settle waits until the process is back to at most want goroutines.
func settle(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want at most %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// The pump must not leave a delivered value reachable from the
// backlog's backing array it resliced past.
func TestPumpZeroesDeliveredSlots(t *testing.T) {
	q := New[*int]()
	defer q.Close()
	q.Push(new(int)) // fills C's buffer: what follows is backlog
	q.mu.Lock()
	q.items = make([]*int, 0, 8)
	backing := q.items[:8]
	q.mu.Unlock()
	for i := 0; i < 3; i++ {
		q.Push(new(int))
	}
	for i := 0; i < 4; i++ {
		recv(t, q)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for i, p := range backing[:3] {
		if p != nil {
			t.Errorf("slot %d still holds its value after delivery", i)
		}
	}
}

// Close must release a pump blocked on a consumer that stopped
// reading, drop what was queued behind it, and close C.
func TestCloseWhileBlocked(t *testing.T) {
	q := New[int]()
	for i := 0; i < 10; i++ {
		q.Push(i)
	}
	if v, _ := recv(t, q); v != 0 {
		t.Fatalf("first value = %d, want 0", v)
	}
	// The pump is now blocked sending 1 (or about to be).
	q.Close()
	q.Close() // closing twice is safe
	q.Push(99)
	for n := 0; ; n++ {
		v, ok := recv(t, q)
		if !ok {
			break
		}
		if n > 0 || v != 1 {
			t.Fatalf("value %d delivered after Close (only the in-flight 1 may be)", v)
		}
	}
}

// Close with a value in C's buffer and a backlog behind it: nothing
// more is delivered, C is closed when Close returns, and the pump is
// gone.
func TestCloseWithBufferedValueAndBacklog(t *testing.T) {
	base := runtime.NumGoroutine()
	q := New[int]()
	for i := 0; i < 5; i++ {
		q.Push(i) // 0 is buffered, 1..4 are the backlog
	}
	q.Close()
	select {
	case v, ok := <-q.C:
		if ok {
			t.Fatalf("value %d delivered after Close", v)
		}
	default:
		t.Fatal("C still open after Close returned")
	}
	q.Push(5)
	settle(t, base)
}

// idle waits until q's pump, if any, has exited.
func idle[T any](t *testing.T, q *Queue[T]) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		q.mu.Lock()
		pumping, backlog := q.pumping, q.items
		q.mu.Unlock()
		if !pumping && backlog == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue still pumping=%v with backlog %v", pumping, backlog)
		}
		time.Sleep(time.Millisecond)
	}
}

// Once every pushed value is consumed no queue holds a goroutine, not
// even the ones whose backlog started a pump.
func TestNoGoroutineAtRest(t *testing.T) {
	const queues, each = 50, 4
	base := runtime.NumGoroutine()
	qs := make([]*Queue[int], queues)
	for i := range qs {
		qs[i] = New[int]()
		for v := 0; v < each; v++ {
			qs[i].Push(v) // all but the first start or feed a pump
		}
	}
	if n := runtime.NumGoroutine(); n < base+queues {
		t.Fatalf("%d goroutines with %d backlogs, want at least %d pumps", n, queues, queues)
	}
	for _, q := range qs {
		for v := 0; v < each; v++ {
			if got, _ := recv(t, q); got != v {
				t.Fatalf("got %d, want %d", got, v)
			}
		}
	}
	for _, q := range qs {
		idle(t, q)
	}
	settle(t, base)
	for _, q := range qs {
		// The next push is a direct hand-off again.
		q.Push(7)
		if v, _ := recv(t, q); v != 7 {
			t.Fatalf("got %d after rest, want 7", v)
		}
		q.Close()
	}
	settle(t, base)
}

// Concurrent producers: nothing lost, and each producer's values
// arrive in the order it pushed them.
func TestOrderUnderConcurrentPush(t *testing.T) {
	const producers, each = 8, 500
	q := New[[2]int]()
	defer q.Close()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				q.Push([2]int{p, i})
			}
		}(p)
	}
	next := make([]int, producers)
	for n := 0; n < producers*each; n++ {
		v, _ := recv(t, q)
		if v[1] != next[v[0]] {
			t.Fatalf("producer %d: got %d, want %d", v[0], v[1], next[v[0]])
		}
		next[v[0]]++
	}
	wg.Wait()
	select {
	case v := <-q.C:
		t.Fatalf("extra value %v", v)
	default:
	}
}

// Rounds of concurrent producers, each round starting on an idle
// queue: its first value is a direct hand-off, and the rest become a
// backlog whenever the consumer lags — always, in the rounds where it
// reads only after every push. Each producer's order must hold across
// every direct → backlog → direct transition.
func TestOrderAcrossDirectAndBacklog(t *testing.T) {
	const producers, rounds, burst = 4, 40, 8
	q := New[[2]int]()
	defer q.Close()
	next := make([]int, producers)
	for r := 0; r < rounds; r++ {
		idle(t, q)
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for k := 0; k < burst; k++ {
					q.Push([2]int{p, r*burst + k})
				}
			}(p)
		}
		if r%2 == 0 {
			wg.Wait() // a guaranteed backlog behind the buffered value
		}
		for n := 0; n < producers*burst; n++ {
			v, _ := recv(t, q)
			if v[1] != next[v[0]] {
				t.Fatalf("round %d, producer %d: got %d, want %d", r, v[0], v[1], next[v[0]])
			}
			next[v[0]]++
		}
		wg.Wait()
	}
	select {
	case v := <-q.C:
		t.Fatalf("extra value %v", v)
	default:
	}
}
