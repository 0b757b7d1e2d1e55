package lockmgr

import (
	"fmt"
	"runtime"
	"testing"

	"camelot/internal/rt"
)

func keys(n int) []string {
	ks := make([]string, n)
	for i := range ks {
		ks[i] = fmt.Sprintf("key/%04d", i)
	}
	return ks
}

// cycle has one transaction take every key exclusively and then
// release them all.
func cycle(tb testing.TB, m *Manager, ks []string) {
	t := txn(1)
	for _, k := range ks {
		if err := m.Acquire(t, k, Exclusive, 0); err != nil {
			tb.Fatal(err)
		}
	}
	m.Release(t)
}

// TestUncontendedLockAllocs pins what one uncontended lock costs on a
// manager that has run before, so its maps have their first tables:
// the lock and the transaction's key list.
func TestUncontendedLockAllocs(t *testing.T) {
	m := New(rt.Real())
	ks := keys(1)
	cycle(t, m, ks)
	if n := testing.AllocsPerRun(100, func() { cycle(t, m, ks) }); n > 2 {
		t.Errorf("one-key Acquire+Release allocates %v times, want ≤ 2", n)
	}
}

func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestLockTableForgetsPeak checks that a big transaction leaves no
// lock-table memory behind: once its 512 locks are released, a
// manager holds within 1 KiB of what it held fresh, the key→lock
// map's grown table included. It measures many managers at once, so
// the heap's own noise of a few KiB spreads across them.
func TestLockTableForgetsPeak(t *testing.T) {
	const n = 32
	ks := keys(512)
	ms := make([]*Manager, n)
	for i := range ms {
		ms[i] = New(rt.Real())
	}
	fresh := liveHeap()
	for _, m := range ms {
		cycle(t, m, ks)
	}
	left := (liveHeap() - fresh) / n
	runtime.KeepAlive(ms)
	t.Logf("a 512-key transaction leaves %d B per manager behind", left)
	if left > 1024 {
		t.Errorf("a 512-key transaction leaves %d B per manager behind, want ≤ 1024", left)
	}
}

// BenchmarkAcquireRelease is one transaction taking keys exclusive
// locks on idle keys and releasing them: one key, one wide-2pc site's
// eight, and one preload transaction's 512.
func BenchmarkAcquireRelease(b *testing.B) {
	for _, n := range []int{1, 8, 512} {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			m, ks := New(rt.Real()), keys(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle(b, m, ks)
			}
		})
	}
}
