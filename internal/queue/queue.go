// Package queue is the testbed's one way to hand events to a consumer
// that may be slow. The model store's and the kube API server's
// watchers are both a Queue plus a filter and a registration.
package queue

import "sync"

// Queue delivers pushed values on C, in push order, from its own pump
// goroutine. The buffer is unbounded, so Push never waits for the
// consumer and nothing is dropped while the queue is open — the
// decoupling the k8s watch cache gives writers, minus the resync path.
type Queue[T any] struct {
	C <-chan T

	mu     sync.Mutex
	cond   *sync.Cond
	items  []T
	closed bool
	done   chan struct{}
}

// New returns an open queue with its pump running; Close ends it.
func New[T any]() *Queue[T] {
	ch := make(chan T)
	q := &Queue[T]{C: ch, done: make(chan struct{})}
	q.cond = sync.NewCond(&q.mu)
	go q.pump(ch)
	return q
}

// Push appends v. After Close it is a no-op.
func (q *Queue[T]) Push(v T) {
	q.mu.Lock()
	if !q.closed {
		q.items = append(q.items, v)
		q.cond.Signal()
	}
	q.mu.Unlock()
}

// Close stops delivery: the consumer may stop reading C at once,
// undelivered values are dropped, the pump exits and C is eventually
// closed. Closing twice is safe.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		close(q.done)
		q.cond.Signal()
	}
	q.mu.Unlock()
}

func (q *Queue[T]) pump(ch chan<- T) {
	defer close(ch)
	for {
		q.mu.Lock()
		for len(q.items) == 0 && !q.closed {
			q.cond.Wait()
		}
		if q.closed {
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
		case ch <- v:
		case <-q.done:
			return
		}
	}
}
