package lockmgr

import (
	"fmt"
	"testing"
	"time"

	"camelot/internal/sim"
	"camelot/internal/tid"
)

func txn(n uint32) tid.TID { return tid.Top(tid.MakeFamily(1, n)) }

func child(parent tid.TID, n uint32) tid.TID {
	return tid.TID{Family: parent.Family, Seq: tid.MakeSeq(1, n)}
}

// withSim runs fn inside a fresh simulation and fails on deadlock.
func withSim(t *testing.T, fn func(k *sim.Kernel, m *Manager)) {
	t.Helper()
	k := sim.New(1)
	k.Go("main", func() { fn(k, New(k)) })
	k.Run()
	if msg := k.Deadlocked(); msg != "" {
		t.Fatal(msg)
	}
}

func TestSharedLocksAreCompatible(t *testing.T) {
	withSim(t, func(k *sim.Kernel, m *Manager) {
		if err := m.Acquire(txn(1), "a", Shared, 0); err != nil {
			t.Errorf("first shared: %v", err)
		}
		if err := m.Acquire(txn(2), "a", Shared, 0); err != nil {
			t.Errorf("second shared: %v", err)
		}
	})
}

func TestExclusiveConflictsWithShared(t *testing.T) {
	withSim(t, func(k *sim.Kernel, m *Manager) {
		m.Acquire(txn(1), "a", Shared, 0)
		if err := m.Acquire(txn(2), "a", Exclusive, 0); err != ErrTimeout {
			t.Errorf("X over S granted: %v", err)
		}
		m.Acquire(txn(3), "b", Exclusive, 0)
		if err := m.Acquire(txn(4), "b", Shared, 0); err != ErrTimeout {
			t.Errorf("S over X granted: %v", err)
		}
		if err := m.Acquire(txn(5), "b", Exclusive, 0); err != ErrTimeout {
			t.Errorf("X over X granted: %v", err)
		}
	})
}

func TestReleaseWakesWaiter(t *testing.T) {
	withSim(t, func(k *sim.Kernel, m *Manager) {
		m.Acquire(txn(1), "a", Exclusive, 0)
		var waitedUntil time.Duration
		k.Go("waiter", func() {
			if err := m.Acquire(txn(2), "a", Exclusive, time.Second); err != nil {
				t.Errorf("waiter: %v", err)
			}
			waitedUntil = time.Duration(k.Now())
		})
		k.Sleep(10 * time.Millisecond)
		m.Release(txn(1))
		k.Sleep(time.Millisecond)
		if waitedUntil != 10*time.Millisecond {
			t.Errorf("waiter granted at %v, want 10ms", waitedUntil)
		}
		if _, held := m.Holds(txn(1), "a"); held {
			t.Error("released holder still holds lock")
		}
		if mode, held := m.Holds(txn(2), "a"); !held || mode != Exclusive {
			t.Errorf("waiter holds (%v, %v), want (X, true)", mode, held)
		}
	})
}

func TestTimeoutBreaksDeadlock(t *testing.T) {
	withSim(t, func(k *sim.Kernel, m *Manager) {
		// Classic AB-BA deadlock; both must time out rather than hang.
		m.Acquire(txn(1), "a", Exclusive, 0)
		m.Acquire(txn(2), "b", Exclusive, 0)
		errs := make([]error, 2)
		k.Go("t1", func() { errs[0] = m.Acquire(txn(1), "b", Exclusive, 50*time.Millisecond) })
		k.Go("t2", func() { errs[1] = m.Acquire(txn(2), "a", Exclusive, 50*time.Millisecond) })
		k.Sleep(100 * time.Millisecond)
		if errs[0] != ErrTimeout || errs[1] != ErrTimeout {
			t.Errorf("deadlocked acquires returned %v, %v; want timeouts", errs[0], errs[1])
		}
	})
}

func TestUpgradeSharedToExclusive(t *testing.T) {
	withSim(t, func(k *sim.Kernel, m *Manager) {
		m.Acquire(txn(1), "a", Shared, 0)
		if err := m.Acquire(txn(1), "a", Exclusive, 0); err != nil {
			t.Errorf("upgrade with no other holder: %v", err)
		}
		if mode, _ := m.Holds(txn(1), "a"); mode != Exclusive {
			t.Errorf("mode after upgrade = %v, want X", mode)
		}
		// Upgrade must fail while another shared holder exists.
		m.Acquire(txn(2), "b", Shared, 0)
		m.Acquire(txn(3), "b", Shared, 0)
		if err := m.Acquire(txn(2), "b", Exclusive, 0); err != ErrTimeout {
			t.Errorf("upgrade over other shared holder: %v", err)
		}
	})
}

func TestChildMayAcquireAncestorsLock(t *testing.T) {
	withSim(t, func(k *sim.Kernel, m *Manager) {
		parent := txn(1)
		c := child(parent, 1)
		gc := child(parent, 2)
		m.Acquire(parent, "a", Exclusive, 0)
		if err := m.Acquire(c, "a", Exclusive, 0, parent); err != nil {
			t.Errorf("child over parent's X lock: %v", err)
		}
		if err := m.Acquire(gc, "a", Exclusive, 0, parent, c); err != nil {
			t.Errorf("grandchild over ancestors' X locks: %v", err)
		}
		// An unrelated transaction must still be blocked.
		if err := m.Acquire(txn(2), "a", Exclusive, 0); err != ErrTimeout {
			t.Errorf("unrelated txn over family's lock: %v", err)
		}
	})
}

func TestSiblingsConflict(t *testing.T) {
	withSim(t, func(k *sim.Kernel, m *Manager) {
		parent := txn(1)
		c1, c2 := child(parent, 1), child(parent, 2)
		m.Acquire(c1, "a", Exclusive, 0, parent)
		if err := m.Acquire(c2, "a", Exclusive, 0, parent); err != ErrTimeout {
			t.Errorf("sibling acquired sibling's X lock: %v", err)
		}
	})
}

func TestChildCommitInheritsLocks(t *testing.T) {
	withSim(t, func(k *sim.Kernel, m *Manager) {
		parent := txn(1)
		c1, c2 := child(parent, 1), child(parent, 2)
		m.Acquire(c1, "a", Exclusive, 0, parent)
		m.OnChildCommit(c1, parent)
		if mode, held := m.Holds(parent, "a"); !held || mode != Exclusive {
			t.Errorf("parent holds (%v, %v) after child commit, want (X, true)", mode, held)
		}
		if m.HoldsAny(c1) {
			t.Error("committed child still holds locks")
		}
		// The sibling, as a child of the new holder, may now acquire.
		if err := m.Acquire(c2, "a", Exclusive, 0, parent); err != nil {
			t.Errorf("sibling after inheritance: %v", err)
		}
	})
}

func TestChildAbortReleasesLocks(t *testing.T) {
	withSim(t, func(k *sim.Kernel, m *Manager) {
		parent := txn(1)
		c := child(parent, 1)
		m.Acquire(c, "a", Exclusive, 0, parent)
		m.Release(c) // abort: anti-inheritance
		if err := m.Acquire(txn(2), "a", Exclusive, 0); err != nil {
			t.Errorf("lock not free after child abort: %v", err)
		}
	})
}

func TestInheritanceKeepsStrongerMode(t *testing.T) {
	withSim(t, func(k *sim.Kernel, m *Manager) {
		parent := txn(1)
		c := child(parent, 1)
		m.Acquire(parent, "a", Exclusive, 0)
		m.Acquire(c, "a", Shared, 0, parent)
		m.OnChildCommit(c, parent)
		if mode, _ := m.Holds(parent, "a"); mode != Exclusive {
			t.Errorf("parent downgraded to %v by inheriting child's S lock", mode)
		}
	})
}

func TestFIFONoStarvationOfExclusiveWaiter(t *testing.T) {
	withSim(t, func(k *sim.Kernel, m *Manager) {
		m.Acquire(txn(1), "a", Shared, 0)
		var xGranted, sGranted time.Duration
		k.Go("x-waiter", func() {
			if err := m.Acquire(txn(2), "a", Exclusive, time.Second); err != nil {
				t.Errorf("x-waiter: %v", err)
			}
			xGranted = time.Duration(k.Now())
		})
		k.Sleep(time.Millisecond)
		k.Go("s-waiter", func() {
			// Arrived after the X waiter; granting it immediately
			// (shared-compatible with holder 1) would starve X.
			if err := m.Acquire(txn(3), "a", Shared, time.Second); err != nil {
				t.Errorf("s-waiter: %v", err)
			}
			sGranted = time.Duration(k.Now())
		})
		k.Sleep(10 * time.Millisecond)
		m.Release(txn(1))
		k.Sleep(time.Millisecond)
		if xGranted == 0 {
			t.Fatal("exclusive waiter never granted")
		}
		if sGranted != 0 {
			t.Fatal("later shared waiter jumped the exclusive waiter")
		}
		m.Release(txn(2))
		k.Sleep(time.Millisecond)
		if sGranted == 0 {
			t.Fatal("shared waiter never granted after X released")
		}
	})
}

// TestTimedOutWaiterPromotesQueue: when the head of a lock's queue
// times out, a waiter behind it that is compatible with the holders
// is granted at once, not at the holders' next release.
func TestTimedOutWaiterPromotesQueue(t *testing.T) {
	withSim(t, func(k *sim.Kernel, m *Manager) {
		m.Acquire(txn(1), "a", Shared, 0)
		var xErr error
		var sGranted time.Duration
		k.Go("x-waiter", func() { xErr = m.Acquire(txn(2), "a", Exclusive, 10*time.Millisecond) })
		k.Sleep(time.Millisecond)
		k.Go("s-waiter", func() {
			if err := m.Acquire(txn(3), "a", Shared, time.Second); err != nil {
				t.Errorf("s-waiter: %v", err)
			}
			sGranted = time.Duration(k.Now())
		})
		k.Sleep(100 * time.Millisecond)
		m.Release(txn(1))
		k.Sleep(time.Millisecond)
		if xErr != ErrTimeout {
			t.Errorf("x-waiter = %v, want ErrTimeout", xErr)
		}
		if sGranted != 10*time.Millisecond {
			t.Errorf("s-waiter granted at %v, want 10ms (when the X request ahead of it timed out)", sGranted)
		}
	})
}

func TestReleaseCleansUpState(t *testing.T) {
	withSim(t, func(k *sim.Kernel, m *Manager) {
		for i := uint32(1); i <= 50; i++ {
			m.Acquire(txn(i), fmt.Sprintf("k%d", i), Exclusive, 0)
		}
		for i := uint32(1); i <= 50; i++ {
			m.Release(txn(i))
		}
		if n := len(m.locks); n != 0 {
			t.Errorf("%d lock entries left after all releases", n)
		}
		if n := len(m.held); n != 0 {
			t.Errorf("%d held entries left after all releases", n)
		}
	})
}

func TestWaitsAccounting(t *testing.T) {
	withSim(t, func(k *sim.Kernel, m *Manager) {
		m.Acquire(txn(1), "a", Exclusive, 0)
		k.Go("w", func() { m.Acquire(txn(2), "a", Exclusive, time.Second) })
		k.Sleep(20 * time.Millisecond)
		m.Release(txn(1))
		k.Sleep(time.Millisecond)
		n, total := m.Waits()
		if n != 1 {
			t.Errorf("Waits n = %d, want 1", n)
		}
		if total != 20*time.Millisecond {
			t.Errorf("Waits total = %v, want 20ms", total)
		}
	})
}
