package core

import (
	"runtime"
	"testing"
	"time"

	"camelot/internal/rt"
	"camelot/internal/tid"
	"camelot/internal/trace"
	"camelot/internal/transport"
	"camelot/internal/wal"
	"camelot/internal/wire"
)

// newRealManager builds a manager on the ordinary Go runtime with a
// trace collector, for white-box locking tests. No site is registered
// on the network: these tests never run the distributed protocol.
func newRealManager(t *testing.T) (*Manager, *trace.Collector) {
	t.Helper()
	r := rt.Real()
	tr := trace.New(r)
	log := wal.Open(r, wal.NewMemStore(), wal.Config{FlushInterval: 5 * time.Millisecond})
	m := New(r, Config{
		Site:             1,
		Threads:          2,
		RetryInterval:    50 * time.Millisecond,
		InquireInterval:  50 * time.Millisecond,
		PromotionTimeout: 100 * time.Millisecond,
		AckFlushInterval: 10 * time.Millisecond,
		Trace:            tr,
	}, log, transport.NewNetwork(r, transport.Config{}))
	t.Cleanup(func() {
		m.Close()
		log.Close()
	})
	return m, tr
}

// lockWaits sums site 1's lock waits over every lock class.
func lockWaits(tr *trace.Collector) int {
	s := tr.Site(1)
	return s.FamilyLockWaits + s.AckLockWaits + s.ResolvedLockWaits + s.IDLockWaits + s.LifeLockWaits
}

// TestFamilyLockContentionCounted pins the lock-wait instrumentation
// on the real runtime: a thread that finds a family lock busy counts
// one wait in the "family" class before blocking.
func TestFamilyLockContentionCounted(t *testing.T) {
	m, tr := newRealManager(t)
	top, err := m.Begin()
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}

	if got := lockWaits(tr); got != 0 {
		t.Fatalf("%d lock waits before any contention", got)
	}

	// Hold the family's lock from the test, then make a second thread
	// collide on it.
	f := m.lockFamily(top.Family)
	if f == nil {
		t.Fatal("family descriptor missing")
	}
	done := make(chan struct{})
	go func() {
		g := m.lockFamily(top.Family)
		m.unlockFamily(g)
		close(done)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for lockWaits(tr) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	m.unlockFamily(f)
	<-done

	if got := tr.Site(1); got.FamilyLockWaits == 0 {
		t.Fatalf("FamilyLockWaits = 0 after a forced collision; site 1 = %+v", got)
	}
}

// TestIndependentFamiliesDoNotContend checks the point of the §3.4
// refactor: holding one family's lock does not block work on another
// family, and no lock wait is counted.
func TestIndependentFamiliesDoNotContend(t *testing.T) {
	m, tr := newRealManager(t)
	a, err := m.Begin()
	if err != nil {
		t.Fatalf("Begin a: %v", err)
	}
	b, err := m.Begin()
	if err != nil {
		t.Fatalf("Begin b: %v", err)
	}
	if a.Family == b.Family {
		t.Fatal("distinct Begins shared a family")
	}

	fa := m.lockFamily(a.Family)
	done := make(chan struct{})
	go func() {
		fb := m.lockFamily(b.Family) // must not block on fa
		m.unlockFamily(fb)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("locking family b blocked while family a was held")
	}
	m.unlockFamily(fa)
	if got := tr.Site(1).FamilyLockWaits; got != 0 {
		t.Fatalf("independent families counted %d family-lock waits", got)
	}
}

// TestFamilyTableShardSpread guards the shard hash: consecutive
// family ids from one origin site must not all land in one shard, or
// the table degenerates back into a global lock.
func TestFamilyTableShardSpread(t *testing.T) {
	tbl := newFamilyTable(rt.Real())
	used := make(map[*familyShard]bool)
	for i := uint32(1); i <= 64; i++ {
		used[tbl.shard(tid.MakeFamily(1, i))] = true
	}
	if len(used) < familyShards/2 {
		t.Fatalf("64 consecutive families hit only %d/%d shards", len(used), familyShards)
	}
}

// liveHeap returns the bytes of live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestResolvedMemoryIsCompact pins what the resolved-outcome memory
// costs per finished family: a long-lived site that never checkpoints
// keeps every one. Family counters are allocated consecutively per
// origin, and then a family costs at most one byte; counters 1,024
// apart, each alone in its word, cost no more than the same families
// in a map[tid.FamilyID]wire.Outcome measured in the same run, so the
// bound holds whichever map layout the toolchain has.
func TestResolvedMemoryIsCompact(t *testing.T) {
	const n = 200_000
	family := func(i int, stride uint32) tid.FamilyID {
		return tid.MakeFamily(tid.SiteID(i%3+1), uint32(i/3)*stride)
	}
	perFamily := func(fill func()) float64 {
		before := liveHeap()
		fill()
		return float64(liveHeap()-before) / n
	}
	resolvedCost := func(stride uint32) float64 {
		m, _ := newRealManager(t)
		b := perFamily(func() {
			for i := 0; i < n; i++ {
				m.setResolved(family(i, stride), wire.OutcomeCommit)
			}
		})
		if got := m.Stats().ResolvedRetained; got != n {
			t.Fatalf("ResolvedRetained = %d, want %d", got, n)
		}
		return b
	}

	dense := resolvedCost(1)
	if dense > 1 {
		t.Errorf("consecutive families retain %.2f B each, want at most 1", dense)
	}
	sparse := resolvedCost(1024)
	var ref map[tid.FamilyID]wire.Outcome
	mapped := perFamily(func() {
		ref = make(map[tid.FamilyID]wire.Outcome)
		for i := 0; i < n; i++ {
			ref[family(i, 1024)] = wire.OutcomeCommit
		}
	})
	runtime.KeepAlive(ref)
	if sparse > 1.1*mapped {
		t.Errorf("families 1,024 apart retain %.1f B each, a map %.1f B: want at most 1.1x", sparse, mapped)
	}
	t.Logf("B per family: consecutive %.2f, 1,024 apart %.1f, map %.1f", dense, sparse, mapped)
}
