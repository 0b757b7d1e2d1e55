package rt

import "fmt"

// Pool is a fixed number of slots serving inputs: the transaction
// manager's thread pool (§3.4), in both real and simulated execution.
// At most n inputs are in progress at once. The pool's own n threads
// take queued inputs in FIFO order; a synchronous caller may instead
// borrow a free slot and run its input itself, which saves the hand-off
// to a pool thread and the wake-up back. Pool threads and borrowing
// callers draw on the one slot count, so the bound holds whoever runs
// an input.
type Pool struct {
	mu     Mutex
	cond   Cond // pool threads wait here for an input and a free slot
	enter  func()
	items  []func() // items[head:] wait for a slot
	head   int
	free   int // slots no input holds
	closed bool
}

// NewPool starts a pool of n slots and n threads named name0 …
// name(n−1). enter, if non-nil, runs at the start of every input, on
// the slot the input holds, wherever it runs.
func NewPool(r Runtime, name string, n int, enter func()) *Pool {
	p := &Pool{enter: enter, free: n}
	p.mu = r.NewMutex()
	p.cond = r.NewCond(p.mu)
	for i := 0; i < n; i++ {
		r.Go(fmt.Sprintf("%s%d", name, i), p.thread)
	}
	return p
}

// Post queues fn for a pool thread and reports true. On a closed pool
// it drops fn and reports false, so racing producers need no shutdown
// coordination, and a caller about to wait for fn's effect can fail at
// once instead.
func (p *Pool) Post(fn func()) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.putLocked(fn)
	return true
}

// Call serves a synchronous input. When a slot is free and nothing is
// queued ahead of it, fn runs on the calling thread under a borrowed
// slot and Call returns after it; otherwise fn is queued behind the
// queued inputs, as Post does. It reports false, without running fn,
// on a closed pool.
func (p *Pool) Call(fn func()) bool {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return false
	}
	if p.free == 0 || p.head < len(p.items) {
		p.putLocked(fn)
		p.mu.Unlock()
		return true
	}
	p.free--
	p.mu.Unlock()
	p.run(fn)
	p.mu.Lock()
	p.free++
	if p.head < len(p.items) {
		p.cond.Signal() // the slot this call held is what the head input waits for
	}
	p.mu.Unlock()
	return true
}

// Len reports the number of inputs waiting for a slot.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.items) - p.head
}

// Close refuses every later Post and Call. The pool threads still run
// what is queued, then exit.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	p.cond.Broadcast()
}

func (p *Pool) putLocked(fn func()) {
	p.items = append(p.items, fn)
	p.cond.Signal()
}

func (p *Pool) run(fn func()) {
	if p.enter != nil {
		p.enter()
	}
	fn()
}

// thread is one pool thread: wait for an input and a free slot, run
// the input, resume waiting (§3.4).
func (p *Pool) thread() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		for (p.head < len(p.items) && p.free == 0) || (p.head == len(p.items) && !p.closed) {
			p.cond.Wait()
		}
		if p.head == len(p.items) {
			return // closed and drained
		}
		fn := p.popLocked()
		p.free--
		p.mu.Unlock()
		p.run(fn)
		p.mu.Lock()
		p.free++
	}
}

// popLocked takes the head input. Its slot is zeroed so the backing
// array does not pin delivered inputs, and the queued inputs move down
// to the front only once the head passes half the slice, so draining a
// backlog costs amortized constant time per input.
func (p *Pool) popLocked() func() {
	fn := p.items[p.head]
	p.items[p.head] = nil
	p.head++
	if p.head > len(p.items)/2 {
		n := copy(p.items, p.items[p.head:])
		clear(p.items[n:])
		p.items = p.items[:n]
		p.head = 0
	}
	return fn
}
