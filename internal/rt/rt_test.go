package rt

import (
	"sync/atomic"
	"testing"
	"time"
)

// The real runtime must satisfy the same contracts the simulation
// kernel is tested against in internal/sim; these tests keep the two
// implementations honest with each other.

func TestRealNowAdvances(t *testing.T) {
	r := Real()
	a := r.Now()
	time.Sleep(2 * time.Millisecond)
	if b := r.Now(); b <= a {
		t.Fatalf("Now did not advance: %v then %v", a, b)
	}
}

func TestRealSleepNonPositiveReturnsImmediately(t *testing.T) {
	r := Real()
	start := time.Now()
	r.Sleep(0)
	r.Sleep(-time.Hour)
	if time.Since(start) > 100*time.Millisecond {
		t.Fatal("non-positive sleep blocked")
	}
}

func TestRealGoRuns(t *testing.T) {
	r := Real()
	done := make(chan struct{})
	r.Go("worker", func() { close(done) })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Go never ran the function")
	}
}

func TestRealAfterFiresAndStops(t *testing.T) {
	r := Real()
	var fired atomic.Bool
	done := make(chan struct{})
	r.After(time.Millisecond, func() {
		fired.Store(true)
		close(done)
	})
	<-done
	if !fired.Load() {
		t.Fatal("timer did not fire")
	}
	var late atomic.Bool
	tm := r.After(time.Hour, func() { late.Store(true) })
	if !tm.Stop() {
		t.Fatal("Stop() = false on pending timer")
	}
	if late.Load() {
		t.Fatal("stopped timer fired")
	}
}

func TestRealMutexAndCond(t *testing.T) {
	r := Real()
	mu := r.NewMutex()
	cond := r.NewCond(mu)
	ready := false
	done := make(chan struct{})
	go func() {
		mu.Lock()
		for !ready {
			cond.Wait()
		}
		mu.Unlock()
		close(done)
	}()
	time.Sleep(time.Millisecond)
	mu.Lock()
	ready = true
	cond.Broadcast()
	mu.Unlock()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cond waiter never woke")
	}
}

func TestRealRandConcurrentUse(t *testing.T) {
	r := Real()
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			rng := r.Rand()
			for j := 0; j < 1000; j++ {
				rng.Int63()
				rng.Uint64()
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < 4; i++ {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("concurrent Rand use hung")
		}
	}
}

// TestQueueOnRealRuntime checks FIFO order on two inputs: a producer
// goroutine racing the consumer, and bursts of puts and gets that keep
// a backlog through the queue's compactions.
func TestQueueOnRealRuntime(t *testing.T) {
	r := Real()
	q := NewQueue[int](r)
	go func() {
		for i := 0; i < 100; i++ {
			q.Put(i)
		}
		q.Close()
	}()
	drainInOrder(t, q, 0, 100)

	q = NewQueue[int](r)
	next, want := 0, 0
	for round := 0; round < 200; round++ {
		for i := 0; i < round%7+1; i++ {
			q.Put(next)
			next++
		}
		for i := 0; i < round%5+1 && q.Len() > 0; i++ {
			if v, _ := q.Get(); v != want {
				t.Fatalf("round %d: got %d, want %d", round, v, want)
			}
			want++
		}
		if got := q.Len(); got != next-want {
			t.Fatalf("round %d: Len = %d, want %d", round, got, next-want)
		}
	}
	q.Close()
	drainInOrder(t, q, want, next)
}

// drainInOrder gets from q until it reports closed, and fails unless
// the items were from, from+1, …, to-1.
func drainInOrder(t *testing.T, q *Queue[int], from, to int) {
	t.Helper()
	for {
		v, ok := q.Get()
		if !ok {
			break
		}
		if v != from {
			t.Fatalf("out of order: got %d want %d", v, from)
		}
		from++
	}
	if from != to {
		t.Fatalf("consumed up to %d, want %d", from, to)
	}
}

func TestFutureOnRealRuntime(t *testing.T) {
	r := Real()
	f := NewFuture[int](r)
	go func() {
		time.Sleep(time.Millisecond)
		f.Set(42)
		f.Set(99) // ignored
	}()
	if v, ok := f.WaitTimeout(5 * time.Second); !ok || v != 42 {
		t.Fatalf("WaitTimeout = %d, %v", v, ok)
	}
	if v, ok := f.WaitTimeout(0); !ok || v != 42 {
		t.Fatalf("WaitTimeout after set = %d, %v", v, ok)
	}
}

func TestFutureWaitTimeoutExpires(t *testing.T) {
	r := Real()
	f := NewFuture[int](r)
	if _, ok := f.WaitTimeout(5 * time.Millisecond); ok {
		t.Fatal("WaitTimeout succeeded with no Set")
	}
}

func TestWaitGroupOnRealRuntime(t *testing.T) {
	r := Real()
	wg := NewWaitGroup(r)
	var n atomic.Int32
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			n.Add(1)
			wg.Done()
		}()
	}
	wg.Wait()
	if n.Load() != 10 {
		t.Fatalf("n = %d after Wait, want 10", n.Load())
	}
}

func TestCPUSerializesUse(t *testing.T) {
	r := Real()
	cpu := NewCPU(r)
	start := time.Now()
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			cpu.Use(5 * time.Millisecond)
			done <- struct{}{}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("4×5ms serialized uses finished in %v", elapsed)
	}
}

func TestChargeNilCPUSleeps(t *testing.T) {
	r := Real()
	start := time.Now()
	Charge(r, nil, 2*time.Millisecond)
	if time.Since(start) < time.Millisecond {
		t.Fatal("Charge(nil) did not sleep")
	}
	Charge(r, nil, 0) // must not panic or block
}
