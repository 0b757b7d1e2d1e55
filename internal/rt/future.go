package rt

import "time"

// Future is a write-once cell a thread can block on. The transaction
// manager uses futures to hand protocol outcomes back to the
// application thread that issued begin/commit/abort.
type Future[T any] struct {
	r    Runtime
	mu   Mutex
	cond Cond
	set  bool
	val  T
}

// NewFuture returns an unset future.
func NewFuture[T any](r Runtime) *Future[T] {
	f := &Future[T]{r: r}
	f.mu = r.NewMutex()
	f.cond = r.NewCond(f.mu)
	return f
}

// Set stores v and wakes all waiters. Only the first Set takes
// effect; later calls are ignored, which lets racing resolutions
// (e.g. duplicate outcome datagrams) stay idempotent.
func (f *Future[T]) Set(v T) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.set {
		return
	}
	f.set = true
	f.val = v
	f.cond.Broadcast()
}

// WaitTimeout blocks up to d; ok reports whether the value arrived.
func (f *Future[T]) WaitTimeout(d time.Duration) (T, bool) {
	timedOut := false
	timer := f.r.After(d, func() {
		f.mu.Lock()
		timedOut = true
		f.cond.Broadcast()
		f.mu.Unlock()
	})
	defer timer.Stop()

	f.mu.Lock()
	defer f.mu.Unlock()
	for !f.set {
		if timedOut {
			var zero T
			return zero, false
		}
		f.cond.Wait()
	}
	return f.val, true
}

// WaitGroup counts outstanding work, like sync.WaitGroup but usable
// under both runtimes.
type WaitGroup struct {
	mu   Mutex
	cond Cond
	n    int
}

// NewWaitGroup returns a WaitGroup with a zero count.
func NewWaitGroup(r Runtime) *WaitGroup {
	wg := &WaitGroup{}
	wg.mu = r.NewMutex()
	wg.cond = r.NewCond(wg.mu)
	return wg
}

// Add adjusts the count by delta; a count reaching zero releases all
// waiters. Add panics if the count goes negative.
func (wg *WaitGroup) Add(delta int) {
	wg.mu.Lock()
	defer wg.mu.Unlock()
	wg.n += delta
	if wg.n < 0 {
		panic("rt: negative WaitGroup counter")
	}
	if wg.n == 0 {
		wg.cond.Broadcast()
	}
}

// Done decrements the count by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait blocks until the count reaches zero.
func (wg *WaitGroup) Wait() {
	wg.mu.Lock()
	defer wg.mu.Unlock()
	for wg.n != 0 {
		wg.cond.Wait()
	}
}
