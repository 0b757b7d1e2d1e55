package core

import (
	"testing"
	"time"

	"camelot/internal/rt"
	"camelot/internal/tid"
	"camelot/internal/trace"
	"camelot/internal/transport"
	"camelot/internal/wal"
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
