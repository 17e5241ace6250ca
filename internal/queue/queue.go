// Package queue is the testbed's one way to hand events to a consumer
// that may be slow. The model store's and the kube API server's
// watchers are both a Queue plus a filter and a registration.
package queue

import "sync"

// Queue delivers pushed values on C, in push order. The buffer is
// unbounded, so Push never waits for the consumer and nothing is
// dropped while the queue is open — the decoupling the k8s watch cache
// gives writers, minus the resync path.
//
// C has a buffer of one. A value pushed while nothing is queued behind
// it goes straight into that buffer, one hop from producer to
// consumer. Only a backlog — a push that finds the buffer full or
// values already queued — starts a pump goroutine, and the pump exits
// as soon as the backlog is drained, so an idle queue holds no
// goroutine.
type Queue[T any] struct {
	C <-chan T

	ch      chan T
	mu      sync.Mutex
	items   []T  // the backlog, in push order; guarded by mu
	pumping bool // a pump owns the backlog; guarded by mu
	closed  bool
	done    chan struct{}
	pump    sync.WaitGroup
}

// New returns an open queue; Close ends it.
func New[T any]() *Queue[T] {
	ch := make(chan T, 1)
	return &Queue[T]{C: ch, ch: ch, done: make(chan struct{})}
}

// Push appends v. After Close it is a no-op.
func (q *Queue[T]) Push(v T) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	if !q.pumping {
		// Nothing is queued ahead of v, and no pump is about to send,
		// so the buffer is the next place in line.
		select {
		case q.ch <- v:
			return
		default:
		}
	}
	q.items = append(q.items, v)
	if !q.pumping {
		q.pumping = true
		q.pump.Add(1)
		go q.drain()
	}
}

// Close stops delivery: the consumer may stop reading C at once,
// undelivered values — the buffered one included — are dropped, any
// pump exits, and C is closed before Close returns. Closing twice is
// safe.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	q.items = nil
	close(q.done)
	q.mu.Unlock()
	// No pump can start now, and a running one leaves at done. Once it
	// has, nothing else sends on ch.
	q.pump.Wait()
	select {
	case <-q.ch:
	default:
	}
	close(q.ch)
}

// drain is the pump: it feeds the backlog into C, in order, and exits
// when the backlog is empty or the queue is closed.
func (q *Queue[T]) drain() {
	defer q.pump.Done()
	for {
		q.mu.Lock()
		if q.closed || len(q.items) == 0 {
			// Drop the drained backing array with the pump: an idle
			// queue holds no memory either.
			q.items = nil
			q.pumping = false
			q.mu.Unlock()
			return
		}
		v := q.items[0]
		// Zero the slot: the backing array outlives the reslice, and
		// would keep the value reachable until it regrows.
		var zero T
		q.items[0] = zero
		q.items = q.items[1:]
		q.mu.Unlock()
		select {
		case q.ch <- v:
		case <-q.done:
			return
		}
	}
}
