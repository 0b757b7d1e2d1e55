package rt

// Queue is an unbounded FIFO mailbox built on a Runtime's mutex and
// condition variable. It is the transaction manager's input queue: the
// thread pool's workers take requests from it, in both real and
// simulated execution.
type Queue[T any] struct {
	mu     Mutex
	cond   Cond
	items  []T // items[head:] are queued
	head   int
	closed bool
}

// NewQueue returns an empty open queue.
func NewQueue[T any](r Runtime) *Queue[T] {
	q := &Queue[T]{}
	q.mu = r.NewMutex()
	q.cond = r.NewCond(q.mu)
	return q
}

// Put appends v and wakes one waiter. Put on a closed queue is a
// no-op so racing producers need no shutdown coordination.
func (q *Queue[T]) Put(v T) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.items = append(q.items, v)
	q.cond.Signal()
}

// Get blocks until an item is available or the queue is closed. The
// second result is false once the queue is closed and drained.
func (q *Queue[T]) Get() (T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head == len(q.items) && !q.closed {
		q.cond.Wait()
	}
	return q.popLocked()
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items) - q.head
}

// Close wakes all waiters; subsequent Gets drain remaining items and
// then report !ok.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

// popLocked takes the head item. Its slot is zeroed so the backing
// array does not pin delivered items, and the queued items move down
// to the front only once the head passes half the slice, so draining a
// backlog costs amortized constant time per item.
func (q *Queue[T]) popLocked() (T, bool) {
	var zero T
	if q.head == len(q.items) {
		return zero, false
	}
	v := q.items[q.head]
	q.items[q.head] = zero
	q.head++
	if q.head > len(q.items)/2 {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items = q.items[:n]
		q.head = 0
	}
	return v, true
}
