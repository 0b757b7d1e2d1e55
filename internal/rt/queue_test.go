package rt

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// A delivered item is not pinned by the queue: once popped and dropped
// by the consumer, a pointer item is collectable even while the queue
// still holds later items.
func TestQueueDoesNotPinDeliveredItems(t *testing.T) {
	q := NewQueue[*[64]byte](Real())
	collected := make(chan struct{})
	first := new([64]byte)
	runtime.SetFinalizer(first, func(*[64]byte) { close(collected) })
	q.Put(first)
	q.Put(new([64]byte))
	first = nil
	if v, ok := q.Get(); !ok || v == nil {
		t.Fatal("Get returned nothing")
	}
	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			if q.Len() != 1 {
				t.Fatalf("Len = %d, want 1", q.Len())
			}
			return
		case <-deadline:
			t.Fatal("popped item never collected: the queue still references it")
		case <-time.After(time.Millisecond):
		}
	}
}

var queueSink func()

// BenchmarkQueueDrain times filling the queue with a backlog of n
// items and draining it: the shape of the transaction manager's input
// queue after an overload.
func BenchmarkQueueDrain(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			q := NewQueue[func()](Real())
			item := func() {}
			for i := 0; i < b.N; i++ {
				for j := 0; j < n; j++ {
					q.Put(item)
				}
				for j := 0; j < n; j++ {
					queueSink, _ = q.Get()
				}
			}
		})
	}
}
