package rt

// Queue is an unbounded FIFO mailbox built on a Runtime's mutex and
// condition variable. It is the message-delivery primitive shared by
// the transaction manager's thread pool, the logger, and the
// transports, in both real and simulated execution.
type Queue[T any] struct {
	mu     Mutex
	cond   Cond
	items  []T
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
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	return q.popLocked()
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// Close wakes all waiters; subsequent Gets drain remaining items and
// then report !ok.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

func (q *Queue[T]) popLocked() (T, bool) {
	if len(q.items) == 0 {
		var zero T
		return zero, false
	}
	v := q.items[0]
	// Shift rather than re-slice so the backing array does not pin
	// delivered items.
	copy(q.items, q.items[1:])
	q.items = q.items[:len(q.items)-1]
	return v, true
}
