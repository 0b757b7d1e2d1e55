package rt

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Pool tests on the real runtime; internal/sim runs the same contracts
// on the simulation kernel.

// inFlight counts the inputs in progress and keeps the most seen at
// once.
type inFlight struct{ now, most atomic.Int32 }

func (c *inFlight) enter() {
	n := c.now.Add(1)
	for m := c.most.Load(); n > m && !c.most.CompareAndSwap(m, n); m = c.most.Load() {
	}
}

func (c *inFlight) leave() { c.now.Add(-1) }

// Pool threads and borrowing callers draw on one slot count: under
// Calls alone, and then Posts and Calls mixed, from many goroutines at
// once, no more than n inputs are ever in progress.
func TestPoolBoundsInputsInProgress(t *testing.T) {
	const slots, callers, each = 3, 8, 100
	p := NewPool(Real(), "pool", slots, nil)
	defer p.Close()
	for _, mixed := range []bool{false, true} {
		var c inFlight
		var done sync.WaitGroup
		done.Add(callers * each)
		input := func() {
			c.enter()
			time.Sleep(10 * time.Microsecond)
			c.leave()
			done.Done()
		}
		for g := 0; g < callers; g++ {
			go func() {
				for i := 0; i < each; i++ {
					if mixed && (g+i)%2 == 0 {
						p.Post(input)
					} else {
						p.Call(input)
					}
				}
			}()
		}
		done.Wait()
		if most := c.most.Load(); most > slots || most < 1 {
			t.Fatalf("mixed=%v: %d inputs in progress at once, want 1 to %d", mixed, most, slots)
		}
	}
}

// order records the inputs that ran, in the order they ran.
type order struct {
	mu  sync.Mutex
	ran []string
}

func (o *order) input(name string) func() {
	return func() {
		o.mu.Lock()
		o.ran = append(o.ran, name)
		o.mu.Unlock()
	}
}

func (o *order) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return strings.Join(o.ran, " ")
}

// A Call made while an input is queued runs after it: it queues
// behind the queued inputs and ahead of later ones.
func TestPoolCallQueuesBehindQueuedInputs(t *testing.T) {
	p := NewPool(Real(), "pool", 1, nil)
	defer p.Close()
	var o order
	release := make(chan struct{})
	done := make(chan struct{})
	p.Post(func() { o.input("X")(); <-release }) // holds the only slot
	p.Post(o.input("A"))
	if !p.Call(o.input("B")) {
		t.Fatal("Call on an open pool reported refusal")
	}
	p.Post(o.input("C"))
	p.Post(func() { close(done) })
	close(release)
	<-done
	if got := o.String(); got != "X A B C" {
		t.Fatalf("ran %q, want \"X A B C\"", got)
	}
}

// countingRuntime counts the signals of every condition variable it
// makes: a pool thread is woken only by one.
type countingRuntime struct {
	Runtime
	signals *atomic.Int32
}

func (r countingRuntime) NewCond(m Mutex) Cond { return countingCond{r.Runtime.NewCond(m), r.signals} }

type countingCond struct {
	Cond
	signals *atomic.Int32
}

func (c countingCond) Signal()    { c.signals.Add(1); c.Cond.Signal() }
func (c countingCond) Broadcast() { c.signals.Add(1); c.Cond.Broadcast() }

// A Call on an idle pool runs its input on the calling goroutine,
// returns after it, and wakes no pool thread.
func TestPoolCallOnIdlePoolRunsOnCaller(t *testing.T) {
	r := countingRuntime{Real(), new(atomic.Int32)}
	p := NewPool(r, "pool", 2, nil)
	defer p.Close()
	for i := 0; i < 3; i++ {
		var stack string
		if !p.Call(func() {
			buf := make([]byte, 8<<10)
			stack = string(buf[:runtime.Stack(buf, false)])
		}) {
			t.Fatal("Call on an open pool reported refusal")
		}
		if !strings.Contains(stack, "TestPoolCallOnIdlePoolRunsOnCaller") {
			t.Fatalf("input did not run on the calling goroutine:\n%s", stack)
		}
	}
	if n := r.signals.Load(); n != 0 {
		t.Fatalf("Calls on an idle pool signalled its threads %d times, want 0", n)
	}
}

// Close drains the queue: a Call queued before it still runs. A Post
// or Call on the closed pool reports refusal at once and never runs.
func TestPoolCloseRunsQueuedCall(t *testing.T) {
	p := NewPool(Real(), "pool", 1, nil)
	release := make(chan struct{})
	ran := make(chan string, 3)
	p.Post(func() { <-release }) // holds the only slot
	if !p.Call(func() { ran <- "queued" }) {
		t.Fatal("Call on an open pool reported refusal")
	}
	p.Close()
	if p.Post(func() { ran <- "posted late" }) {
		t.Fatal("Post on a closed pool reported success")
	}
	if p.Call(func() { ran <- "called late" }) {
		t.Fatal("Call on a closed pool reported success")
	}
	close(release)
	select {
	case got := <-ran:
		if got != "queued" {
			t.Fatalf("ran %q, want the Call queued before Close", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the Call queued before Close never ran")
	}
	if p.Len() != 0 {
		t.Fatalf("Len = %d after the drain, want 0", p.Len())
	}
	select {
	case got := <-ran:
		t.Fatalf("ran %q, refused at Close", got)
	case <-time.After(10 * time.Millisecond):
	}
}

// Post on a closed pool refuses the input and says so: the caller can
// fail at once instead of waiting for work no thread will take.
func TestPostOnClosedPoolReportsRefusal(t *testing.T) {
	p := NewPool(Real(), "pool", 1, nil)
	ran := make(chan int, 2)
	if !p.Post(func() { ran <- 1 }) {
		t.Fatal("Post on an open pool reported refusal")
	}
	if v := <-ran; v != 1 {
		t.Fatalf("ran %d, want 1", v)
	}
	p.Close()
	if p.Post(func() { ran <- 2 }) {
		t.Fatal("Post on a closed pool reported success")
	}
	select {
	case v := <-ran:
		t.Fatalf("ran %d, the refused input", v)
	case <-time.After(10 * time.Millisecond):
	}
}

// postHolding posts an input that is the only holder of an object
// whose finalizer closes collected.
func postHolding(p *Pool, collected chan struct{}) {
	obj := new([64]byte)
	runtime.SetFinalizer(obj, func(*[64]byte) { close(collected) })
	p.Post(func() { obj[0]++ })
}

// A delivered input is not pinned by the pool: once run, it is
// collectable even while the pool still holds later inputs. A borrowed
// slot holds the pool while four inputs queue; then the first runs and
// the second holds the slot, so the queue pops twice without moving
// its items down.
func TestPoolDoesNotPinDeliveredInputs(t *testing.T) {
	p := NewPool(Real(), "pool", 1, nil)
	defer p.Close()
	collected := make(chan struct{})
	borrowed, unborrow := make(chan struct{}), make(chan struct{})
	running, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	go p.Call(func() { close(borrowed); <-unborrow })
	<-borrowed
	postHolding(p, collected)
	p.Post(func() { close(running); <-release })
	p.Post(func() {})
	p.Post(func() {})
	close(unborrow)
	<-running
	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			if p.Len() != 2 {
				t.Fatalf("Len = %d, want 2", p.Len())
			}
			return
		case <-deadline:
			t.Fatal("delivered input never collected: the pool still references it")
		case <-time.After(time.Millisecond):
		}
	}
}

// TestPoolOnRealRuntime checks FIFO order on two inputs: a producer
// goroutine racing the pool thread, and bursts posted while the only
// slot is held, so a backlog builds through the queue's compactions.
func TestPoolOnRealRuntime(t *testing.T) {
	p := NewPool(Real(), "pool", 1, nil)
	defer p.Close()
	o := &order{}
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			p.Post(o.input(fmt.Sprint(i)))
		}
		p.Post(func() { close(done) })
	}()
	<-done
	checkRan(t, o, 100)

	o = &order{}
	release := make(chan struct{})
	done = make(chan struct{})
	p.Post(func() { <-release })
	next := 0
	for round := 0; round < 200; round++ {
		for i := 0; i < round%7+1; i++ {
			p.Post(o.input(fmt.Sprint(next)))
			next++
		}
		if got := p.Len(); got != next && got != next+1 { // +1 until the thread takes the holder
			t.Fatalf("round %d: Len = %d, want %d", round, got, next)
		}
	}
	p.Post(func() { close(done) })
	close(release)
	<-done
	checkRan(t, o, next)
}

// checkRan fails unless o ran 0, 1, …, n-1.
func checkRan(t *testing.T, o *order, n int) {
	t.Helper()
	if len(o.ran) != n {
		t.Fatalf("ran %d inputs, want %d", len(o.ran), n)
	}
	for i, name := range o.ran {
		if name != fmt.Sprint(i) {
			t.Fatalf("out of order: input %d was %s", i, name)
		}
	}
}

var poolSink int

// BenchmarkPool times one client input served the two ways a pool
// serves it, each as the transaction manager issues it (a future set
// by the input, then waited on): run on the calling goroutine under a
// borrowed slot (call-idle), and handed to a pool thread and waited
// for (post-wait, the hop every input took before callers borrowed
// slots). post-backlog/N posts N inputs while the only slot is held and
// times their drain by the pool thread: the shape of the transaction
// manager's input queue after an overload.
func BenchmarkPool(b *testing.B) {
	r := Real()
	for _, c := range []struct {
		name  string
		issue func(*Pool, func()) bool
	}{
		{"call-idle", (*Pool).Call},
		{"post-wait", (*Pool).Post},
	} {
		b.Run(c.name, func(b *testing.B) {
			p := NewPool(r, "pool", 1, nil)
			defer p.Close()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fut := NewFuture[int](r)
				c.issue(p, func() { fut.Set(i) })
				poolSink, _ = fut.WaitTimeout(time.Minute)
			}
		})
	}
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprint("post-backlog/", n), func(b *testing.B) {
			p := NewPool(r, "pool", 1, nil)
			defer p.Close()
			item := func() { poolSink++ }
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				release := make(chan struct{})
				done := make(chan struct{})
				p.Post(func() { <-release })
				for j := 0; j < n; j++ {
					p.Post(item)
				}
				p.Post(func() { close(done) })
				close(release)
				<-done
			}
		})
	}
}
