package sim

import (
	"fmt"
	"testing"
	"time"

	"camelot/internal/rt"
)

func TestClockStartsAtZero(t *testing.T) {
	k := New(1)
	var got rt.Time = -1
	k.Go("main", func() { got = k.Now() })
	k.Run()
	if got != 0 {
		t.Fatalf("Now() at start = %v, want 0", got)
	}
}

func TestSleepAdvancesVirtualTime(t *testing.T) {
	k := New(1)
	var got rt.Time
	k.Go("main", func() {
		k.Sleep(15 * time.Millisecond)
		got = k.Now()
	})
	wall := time.Now()
	end := k.Run()
	if got != 15*time.Millisecond {
		t.Errorf("after Sleep(15ms) Now() = %v, want 15ms", got)
	}
	if end != 15*time.Millisecond {
		t.Errorf("Run() = %v, want 15ms", end)
	}
	if elapsed := time.Since(wall); elapsed > time.Second {
		t.Errorf("virtual sleep took %v of wall time", elapsed)
	}
}

func TestSleepZeroAndNegative(t *testing.T) {
	k := New(1)
	done := 0
	k.Go("main", func() {
		k.Sleep(0)
		k.Sleep(-time.Second)
		done++
	})
	if end := k.Run(); end != 0 {
		t.Errorf("Run() = %v, want 0", end)
	}
	if done != 1 {
		t.Error("thread did not complete")
	}
}

func TestParallelSleepsOverlap(t *testing.T) {
	// Ten threads each sleeping 10ms concurrently must finish at
	// t=10ms, not t=100ms.
	k := New(1)
	for i := 0; i < 10; i++ {
		k.Go(fmt.Sprintf("t%d", i), func() { k.Sleep(10 * time.Millisecond) })
	}
	if end := k.Run(); end != 10*time.Millisecond {
		t.Fatalf("Run() = %v, want 10ms", end)
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() string {
		k := New(42)
		var order string
		mu := k.NewMutex()
		for i := 0; i < 5; i++ {
			i := i
			k.Go(fmt.Sprintf("t%d", i), func() {
				k.Sleep(time.Duration(k.Rand().Intn(10)) * time.Millisecond)
				mu.Lock()
				order += fmt.Sprintf("%d", i)
				mu.Unlock()
			})
		}
		k.Run()
		return order
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two identically seeded runs diverged: %q vs %q", a, b)
	}
	if len(a) != 5 {
		t.Fatalf("order %q does not contain all threads", a)
	}
}

func TestMutexMutualExclusion(t *testing.T) {
	k := New(1)
	mu := k.NewMutex()
	inside, max := 0, 0
	for i := 0; i < 8; i++ {
		k.Go(fmt.Sprintf("t%d", i), func() {
			mu.Lock()
			inside++
			if inside > max {
				max = inside
			}
			k.Sleep(time.Millisecond) // hold across a yield
			inside--
			mu.Unlock()
		})
	}
	k.Run()
	if max != 1 {
		t.Fatalf("max threads inside critical section = %d, want 1", max)
	}
}

func TestCondSignalWakesOneWaiter(t *testing.T) {
	k := New(1)
	mu := k.NewMutex()
	cond := k.NewCond(mu)
	ready := false
	woken := 0
	for i := 0; i < 3; i++ {
		k.Go(fmt.Sprintf("w%d", i), func() {
			mu.Lock()
			for !ready {
				cond.Wait()
			}
			woken++
			ready = false
			mu.Unlock()
		})
	}
	k.Go("signaler", func() {
		for i := 0; i < 3; i++ {
			k.Sleep(time.Millisecond)
			mu.Lock()
			ready = true
			cond.Signal()
			mu.Unlock()
		}
	})
	k.Run()
	if woken != 3 {
		t.Fatalf("woken = %d, want 3", woken)
	}
	if msg := k.Deadlocked(); msg != "" {
		t.Fatalf("unexpected deadlock: %s", msg)
	}
}

func TestCondBroadcastWakesAll(t *testing.T) {
	k := New(1)
	mu := k.NewMutex()
	cond := k.NewCond(mu)
	go110 := false
	woken := 0
	for i := 0; i < 5; i++ {
		k.Go(fmt.Sprintf("w%d", i), func() {
			mu.Lock()
			for !go110 {
				cond.Wait()
			}
			woken++
			mu.Unlock()
		})
	}
	k.Go("b", func() {
		k.Sleep(time.Millisecond)
		mu.Lock()
		go110 = true
		cond.Broadcast()
		mu.Unlock()
	})
	k.Run()
	if woken != 5 {
		t.Fatalf("woken = %d, want 5", woken)
	}
}

func TestAfterFiresAtScheduledTime(t *testing.T) {
	k := New(1)
	var at rt.Time = -1
	k.Go("main", func() {
		k.After(25*time.Millisecond, func() { at = k.Now() })
		k.Sleep(50 * time.Millisecond)
	})
	k.Run()
	if at != 25*time.Millisecond {
		t.Fatalf("timer fired at %v, want 25ms", at)
	}
}

func TestTimerStopPreventsFiring(t *testing.T) {
	k := New(1)
	fired := false
	k.Go("main", func() {
		tm := k.After(10*time.Millisecond, func() { fired = true })
		if !tm.Stop() {
			t.Error("Stop() = false on pending timer")
		}
		if tm.Stop() {
			t.Error("second Stop() = true")
		}
		k.Sleep(20 * time.Millisecond)
	})
	k.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestTimerStopAfterFiring(t *testing.T) {
	k := New(1)
	k.Go("main", func() {
		tm := k.After(time.Millisecond, func() {})
		k.Sleep(5 * time.Millisecond)
		if tm.Stop() {
			t.Error("Stop() = true after timer fired")
		}
	})
	k.Run()
}

func TestDeadlockDetection(t *testing.T) {
	k := New(1)
	mu := k.NewMutex()
	cond := k.NewCond(mu)
	k.Go("stuck", func() {
		mu.Lock()
		cond.Wait() // nobody will ever signal
		mu.Unlock()
	})
	k.Run()
	if msg := k.Deadlocked(); msg == "" {
		t.Fatal("Deadlocked() = \"\", want a report naming the stuck thread")
	}
}

func TestRunUntilHorizon(t *testing.T) {
	k := New(1)
	ticks := 0
	k.Go("ticker", func() {
		for {
			k.Sleep(10 * time.Millisecond)
			ticks++
		}
	})
	end := k.RunUntil(95 * time.Millisecond)
	if ticks != 9 {
		t.Errorf("ticks = %d, want 9", ticks)
	}
	if end != 95*time.Millisecond {
		t.Errorf("RunUntil returned %v, want 95ms", end)
	}
}

func TestStopEndsRun(t *testing.T) {
	k := New(1)
	k.Go("stopper", func() {
		k.Sleep(5 * time.Millisecond)
		k.Stop()
	})
	k.Go("forever", func() {
		for {
			k.Sleep(time.Millisecond)
		}
	})
	end := k.Run()
	if end != 5*time.Millisecond {
		t.Fatalf("Run() = %v, want 5ms", end)
	}
	if msg := k.Deadlocked(); msg != "" {
		t.Fatalf("Stop must not report deadlock, got: %s", msg)
	}
}

func TestKillUnwindRunsDeferredFunctions(t *testing.T) {
	k := New(1)
	cleaned := false
	mu := k.NewMutex()
	k.Go("victim", func() {
		mu.Lock()
		defer mu.Unlock()
		defer func() { cleaned = true }()
		k.Sleep(time.Hour) // still parked when the horizon hits
	})
	k.RunUntil(time.Millisecond)
	if !cleaned {
		t.Fatal("deferred function did not run during kill unwind")
	}
}

func TestSpawnFromThread(t *testing.T) {
	k := New(1)
	var childTime rt.Time = -1
	k.Go("parent", func() {
		k.Sleep(time.Millisecond)
		k.Go("child", func() { childTime = k.Now() })
	})
	k.Run()
	if childTime != time.Millisecond {
		t.Fatalf("child observed t=%v, want 1ms", childTime)
	}
}

func TestQueueOnSimKernel(t *testing.T) {
	k := New(1)
	q := rt.NewQueue[int](k)
	var got []int
	k.Go("consumer", func() {
		for {
			v, ok := q.Get()
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	k.Go("producer", func() {
		for i := 0; i < 5; i++ {
			k.Sleep(time.Millisecond)
			q.Put(i)
		}
		q.Close()
	})
	k.Run()
	if len(got) != 5 {
		t.Fatalf("consumed %v, want 5 items", got)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d, want %d (FIFO violated)", i, v, i)
		}
	}
}

func TestFutureOnSimKernel(t *testing.T) {
	k := New(1)
	f := rt.NewFuture[string](k)
	var got string
	var when rt.Time
	k.Go("waiter", func() {
		got, _ = f.WaitTimeout(time.Second)
		when = k.Now()
	})
	k.Go("setter", func() {
		k.Sleep(7 * time.Millisecond)
		f.Set("done")
		f.Set("ignored") // second set must not win
	})
	k.Run()
	if got != "done" {
		t.Fatalf("WaitTimeout = %q, want \"done\"", got)
	}
	if when != 7*time.Millisecond {
		t.Fatalf("future resolved at %v, want 7ms", when)
	}
}

func TestFutureWaitTimeout(t *testing.T) {
	k := New(1)
	f := rt.NewFuture[int](k)
	var ok bool
	k.Go("waiter", func() {
		_, ok = f.WaitTimeout(5 * time.Millisecond)
	})
	k.Run()
	if ok {
		t.Fatal("WaitTimeout reported success with no Set")
	}
}

func TestWaitGroupOnSimKernel(t *testing.T) {
	k := New(1)
	wg := rt.NewWaitGroup(k)
	n := 0
	var doneAt rt.Time
	k.Go("main", func() {
		for i := 1; i <= 3; i++ {
			i := i
			wg.Add(1)
			k.Go(fmt.Sprintf("w%d", i), func() {
				k.Sleep(time.Duration(i) * time.Millisecond)
				n++
				wg.Done()
			})
		}
		wg.Wait()
		doneAt = k.Now()
	})
	k.Run()
	if n != 3 {
		t.Fatalf("n = %d, want 3", n)
	}
	if doneAt != 3*time.Millisecond {
		t.Fatalf("WaitGroup released at %v, want 3ms", doneAt)
	}
}

func TestManyKernelsDoNotLeakDeadlockState(t *testing.T) {
	// Regression guard: killParked must fully unwind parked threads
	// so thousands of simulations can run in one process.
	for i := 0; i < 200; i++ {
		k := New(int64(i))
		mu := k.NewMutex()
		cond := k.NewCond(mu)
		k.Go("stuck", func() {
			mu.Lock()
			cond.Wait()
			mu.Unlock()
		})
		k.Go("sleeper", func() { k.Sleep(time.Hour) })
		k.RunUntil(time.Second)
	}
}
