package queue

import (
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

// The pump must not leave a delivered value reachable from the
// backing array it resliced past.
func TestPumpZeroesDeliveredSlots(t *testing.T) {
	q := New[*int]()
	defer q.Close()
	q.mu.Lock()
	q.items = make([]*int, 0, 8)
	backing := q.items[:8]
	q.mu.Unlock()
	for i := 0; i < 3; i++ {
		q.Push(new(int))
	}
	for i := 0; i < 3; i++ {
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
