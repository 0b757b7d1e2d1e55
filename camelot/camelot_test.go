package camelot

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"camelot/internal/params"
	"camelot/internal/sim"
)

// fastConfig returns a functional-test configuration: tiny latencies,
// short timers.
func fastConfig() Config {
	return Config{
		Params:           params.Fast(),
		Threads:          5,
		GroupCommit:      true,
		LogFlushInterval: 20 * time.Millisecond,
		LockTimeout:      500 * time.Millisecond,
		RetryInterval:    50 * time.Millisecond,
		InquireInterval:  50 * time.Millisecond,
		PromotionTimeout: 100 * time.Millisecond,
		AckFlushInterval: 20 * time.Millisecond,
		RPCTimeout:       200 * time.Millisecond,
	}
}

// runSim executes fn inside a deterministic simulation with a
// three-node cluster (sites 1–3, one server per site named srvN) and
// fails the test on simulated deadlock.
func runSim(t *testing.T, cfg Config, fn func(k *sim.Kernel, c *Cluster)) {
	t.Helper()
	k := sim.New(1)
	c := NewCluster(k, cfg)
	for id := SiteID(1); id <= 3; id++ {
		n := c.AddNode(id)
		n.AddServer(srvName(id))
	}
	k.Go("test", func() {
		fn(k, c)
		k.Stop() // nothing left but periodic timers
	})
	k.RunUntil(10 * time.Minute)
	if msg := k.Deadlocked(); msg != "" {
		t.Fatal(msg)
	}
}

func srvName(id SiteID) string {
	return string([]byte{'s', 'r', 'v', byte('0' + id)})
}

func TestLocalCommit(t *testing.T) {
	runSim(t, fastConfig(), func(k *sim.Kernel, c *Cluster) {
		n := c.Node(1)
		tx, err := n.Begin()
		if err != nil {
			t.Fatalf("Begin: %v", err)
		}
		if err := tx.Write("srv1", "a", []byte("1")); err != nil {
			t.Fatalf("Write: %v", err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
		v, ok := n.Server("srv1").Peek("a")
		if !ok || !bytes.Equal(v, []byte("1")) {
			t.Fatalf("after commit, a = %q (%v)", v, ok)
		}
	})
}

func TestLocalAbortUndoesUpdates(t *testing.T) {
	runSim(t, fastConfig(), func(k *sim.Kernel, c *Cluster) {
		n := c.Node(1)
		seed(t, n, "srv1", "a", "old")
		tx, _ := n.Begin()
		tx.Write("srv1", "a", []byte("new"))
		if err := tx.Abort(); err != nil {
			t.Fatalf("Abort: %v", err)
		}
		v, _ := n.Server("srv1").Peek("a")
		if !bytes.Equal(v, []byte("old")) {
			t.Fatalf("after abort, a = %q, want \"old\"", v)
		}
	})
}

// seed commits a single write so later transactions have data.
func seed(t *testing.T, n *Node, srv, key, val string) {
	t.Helper()
	tx, err := n.Begin()
	if err != nil {
		t.Fatalf("seed begin: %v", err)
	}
	if err := tx.Write(srv, key, []byte(val)); err != nil {
		t.Fatalf("seed write: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("seed commit: %v", err)
	}
}

func TestLocalReadCommittedIsolation(t *testing.T) {
	runSim(t, fastConfig(), func(k *sim.Kernel, c *Cluster) {
		n := c.Node(1)
		seed(t, n, "srv1", "a", "1")
		tx, _ := n.Begin()
		v, err := tx.Read("srv1", "a")
		if err != nil || string(v) != "1" {
			t.Fatalf("Read = %q, %v", v, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("read-only commit: %v", err)
		}
	})
}

func TestReadOnlyCommitWritesNoLogRecords(t *testing.T) {
	runSim(t, fastConfig(), func(k *sim.Kernel, c *Cluster) {
		n := c.Node(1)
		seed(t, n, "srv1", "a", "1")
		before := n.Log().Appends()
		tx, _ := n.Begin()
		tx.Read("srv1", "a")
		if err := tx.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
		if got := n.Log().Appends(); got != before {
			t.Fatalf("read-only commit appended %d log records", got-before)
		}
	})
}

func TestDistributedCommitTwoPhase(t *testing.T) {
	for _, opts := range []Options{
		{},                     // optimized
		{ForceSubCommit: true}, // semi-optimized
		{ForceSubCommit: true, ImmediateAck: true}, // unoptimized
		{Multicast: true},
	} {
		opts := opts
		runSim(t, fastConfig(), func(k *sim.Kernel, c *Cluster) {
			tx, _ := c.Node(1).Begin()
			if err := tx.Write("srv1", "x", []byte("1")); err != nil {
				t.Fatalf("local write: %v", err)
			}
			if err := tx.Write("srv2", "y", []byte("2")); err != nil {
				t.Fatalf("remote write: %v", err)
			}
			if err := tx.Write("srv3", "z", []byte("3")); err != nil {
				t.Fatalf("remote write: %v", err)
			}
			if err := tx.CommitWith(opts); err != nil {
				t.Fatalf("CommitWith(%+v): %v", opts, err)
			}
			k.Sleep(500 * time.Millisecond) // let subs apply + acks drain
			for id := SiteID(1); id <= 3; id++ {
				key := []string{"", "x", "y", "z"}[id]
				want := []string{"", "1", "2", "3"}[id]
				v, ok := c.Node(id).Server(srvName(id)).Peek(key)
				if !ok || string(v) != want {
					t.Errorf("site %d: %s = %q (%v), want %q", id, key, v, ok, want)
				}
			}
			// The coordinator must eventually forget: acks received.
			s := c.Node(1).TM().Stats()
			if s.Committed != 1 {
				t.Errorf("coordinator Committed = %d, want 1", s.Committed)
			}
		})
	}
}

func TestDistributedAbortUndoesEverywhere(t *testing.T) {
	runSim(t, fastConfig(), func(k *sim.Kernel, c *Cluster) {
		seed(t, c.Node(2), "srv2", "y", "old")
		tx, _ := c.Node(1).Begin()
		tx.Write("srv1", "x", []byte("new"))
		tx.Write("srv2", "y", []byte("new"))
		if err := tx.Abort(); err != nil {
			t.Fatalf("Abort: %v", err)
		}
		k.Sleep(500 * time.Millisecond)
		if _, ok := c.Node(1).Server("srv1").Peek("x"); ok {
			t.Error("site 1 kept aborted insert")
		}
		v, _ := c.Node(2).Server("srv2").Peek("y")
		if string(v) != "old" {
			t.Errorf("site 2: y = %q after abort, want \"old\"", v)
		}
	})
}

// TestAbortAfterCommitIsRefused: abort-transaction reports success only
// for a family that is aborted, or will be under presumed abort. After a
// commit it must refuse, both while the coordinator still awaits the
// subordinate's acknowledgement and once it has forgotten the family,
// and the committed writes stay.
func TestAbortAfterCommitIsRefused(t *testing.T) {
	runSim(t, fastConfig(), func(k *sim.Kernel, c *Cluster) {
		tx, _ := c.Node(1).Begin()
		if err := tx.Write("srv1", "x", []byte("1")); err != nil {
			t.Fatalf("local write: %v", err)
		}
		if err := tx.Write("srv2", "y", []byte("2")); err != nil {
			t.Fatalf("remote write: %v", err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
		if err := tx.Abort(); err == nil {
			t.Error("Abort right after the commit returned nil")
		}
		k.Sleep(500 * time.Millisecond) // acks drain; the coordinator forgets
		if err := tx.Abort(); err == nil {
			t.Error("Abort of the forgotten committed family returned nil")
		}
		k.Sleep(500 * time.Millisecond)
		if v, _ := c.Node(1).Server("srv1").Peek("x"); string(v) != "1" {
			t.Errorf("site 1: x = %q after the refused aborts, want \"1\"", v)
		}
		if v, _ := c.Node(2).Server("srv2").Peek("y"); string(v) != "2" {
			t.Errorf("site 2: y = %q after the refused aborts, want \"2\"", v)
		}
	})
}

func TestDistributedReadOnlySitesSkipPhaseTwo(t *testing.T) {
	runSim(t, fastConfig(), func(k *sim.Kernel, c *Cluster) {
		seed(t, c.Node(2), "srv2", "y", "1")
		before := c.Node(2).Log().Appends()
		tx, _ := c.Node(1).Begin()
		tx.Write("srv1", "x", []byte("1")) // update at coordinator
		if _, err := tx.Read("srv2", "y"); err != nil {
			t.Fatalf("remote read: %v", err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
		k.Sleep(500 * time.Millisecond)
		// The read-only subordinate wrote nothing to its log.
		if got := c.Node(2).Log().Appends(); got != before {
			t.Errorf("read-only subordinate appended %d records", got-before)
		}
	})
}

func TestFullyReadOnlyDistributedCommit(t *testing.T) {
	runSim(t, fastConfig(), func(k *sim.Kernel, c *Cluster) {
		seed(t, c.Node(1), "srv1", "x", "1")
		seed(t, c.Node(2), "srv2", "y", "1")
		a1, a2 := c.Node(1).Log().Appends(), c.Node(2).Log().Appends()
		tx, _ := c.Node(1).Begin()
		tx.Read("srv1", "x")
		tx.Read("srv2", "y")
		if err := tx.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
		k.Sleep(300 * time.Millisecond)
		if c.Node(1).Log().Appends() != a1 || c.Node(2).Log().Appends() != a2 {
			t.Error("fully read-only distributed commit wrote log records")
		}
	})
}

func TestLockConflictAcrossTransactions(t *testing.T) {
	runSim(t, fastConfig(), func(k *sim.Kernel, c *Cluster) {
		n := c.Node(1)
		seed(t, n, "srv1", "a", "0")
		tx1, _ := n.Begin()
		tx1.Write("srv1", "a", []byte("1"))
		tx2, _ := n.Begin()
		// tx2 must block until tx1 commits, then see its value.
		var v2 []byte
		var err2 error
		done := false
		k.Go("tx2", func() {
			v2, err2 = tx2.Read("srv1", "a")
			done = true
		})
		k.Sleep(50 * time.Millisecond)
		if done {
			t.Error("conflicting read completed while lock held")
		}
		if err := tx1.Commit(); err != nil {
			t.Fatalf("tx1 commit: %v", err)
		}
		k.Sleep(100 * time.Millisecond)
		if !done {
			t.Fatal("tx2 still blocked after tx1 committed")
		}
		if err2 != nil || string(v2) != "1" {
			t.Fatalf("tx2 read = %q, %v; want \"1\"", v2, err2)
		}
		tx2.Commit()
	})
}

func TestNonBlockingCommit(t *testing.T) {
	runSim(t, fastConfig(), func(k *sim.Kernel, c *Cluster) {
		tx, _ := c.Node(1).Begin()
		tx.Write("srv1", "x", []byte("1"))
		tx.Write("srv2", "y", []byte("2"))
		tx.Write("srv3", "z", []byte("3"))
		if err := tx.CommitWith(Options{Protocol: NonBlocking}); err != nil {
			t.Fatalf("non-blocking commit: %v", err)
		}
		k.Sleep(500 * time.Millisecond)
		for id := SiteID(1); id <= 3; id++ {
			key := []string{"", "x", "y", "z"}[id]
			if v, ok := c.Node(id).Server(srvName(id)).Peek(key); !ok {
				t.Errorf("site %d missing %s after NB commit (%q)", id, key, v)
			}
		}
	})
}

func TestNonBlockingReadOnly(t *testing.T) {
	runSim(t, fastConfig(), func(k *sim.Kernel, c *Cluster) {
		seed(t, c.Node(2), "srv2", "y", "1")
		before := c.Node(2).Log().Appends()
		tx, _ := c.Node(1).Begin()
		tx.Write("srv1", "x", []byte("1"))
		tx.Read("srv2", "y")
		if err := tx.CommitWith(Options{Protocol: NonBlocking}); err != nil {
			t.Fatalf("NB commit: %v", err)
		}
		k.Sleep(500 * time.Millisecond)
		// Read-only subordinate: one round of messages, no records —
		// unless it was drafted as a quorum filler, which with N=2
		// participants (Qc=2) it is. Site 2 being the only
		// subordinate, it must hold the replicated intent.
		if got := c.Node(2).Log().Appends(); got == before {
			t.Log("read-only sub wrote no records (not needed for quorum)")
		}
	})
}

func TestNestedCommitMergesIntoParent(t *testing.T) {
	runSim(t, fastConfig(), func(k *sim.Kernel, c *Cluster) {
		n := c.Node(1)
		parent, _ := n.Begin()
		parent.Write("srv1", "a", []byte("p"))
		child, err := parent.Child()
		if err != nil {
			t.Fatalf("Child: %v", err)
		}
		child.Write("srv1", "b", []byte("c"))
		if err := child.Commit(); err != nil {
			t.Fatalf("child commit: %v", err)
		}
		// Parent can now touch the child's data (inherited lock).
		if err := parent.Write("srv1", "b", []byte("p2")); err != nil {
			t.Fatalf("parent write after inheritance: %v", err)
		}
		if err := parent.Commit(); err != nil {
			t.Fatalf("parent commit: %v", err)
		}
		v, _ := n.Server("srv1").Peek("b")
		if string(v) != "p2" {
			t.Fatalf("b = %q, want \"p2\"", v)
		}
	})
}

func TestNestedAbortDoesNotKillParent(t *testing.T) {
	runSim(t, fastConfig(), func(k *sim.Kernel, c *Cluster) {
		n := c.Node(1)
		parent, _ := n.Begin()
		parent.Write("srv1", "a", []byte("p"))
		child, _ := parent.Child()
		child.Write("srv1", "b", []byte("c"))
		if err := child.Abort(); err != nil {
			t.Fatalf("child abort: %v", err)
		}
		if err := parent.Commit(); err != nil {
			t.Fatalf("parent commit after child abort: %v", err)
		}
		if v, _ := n.Server("srv1").Peek("a"); string(v) != "p" {
			t.Errorf("a = %q, want \"p\"", v)
		}
		if _, ok := n.Server("srv1").Peek("b"); ok {
			t.Error("aborted child's write survived")
		}
	})
}

func TestNestedDistributedChildAbort(t *testing.T) {
	runSim(t, fastConfig(), func(k *sim.Kernel, c *Cluster) {
		seed(t, c.Node(2), "srv2", "y", "old")
		parent, _ := c.Node(1).Begin()
		parent.Write("srv1", "x", []byte("p"))
		child, _ := parent.Child()
		if err := child.Write("srv2", "y", []byte("c")); err != nil {
			t.Fatalf("child remote write: %v", err)
		}
		if err := child.Abort(); err != nil {
			t.Fatalf("child abort: %v", err)
		}
		k.Sleep(100 * time.Millisecond) // child-abort datagram
		if err := parent.Commit(); err != nil {
			t.Fatalf("parent commit: %v", err)
		}
		k.Sleep(500 * time.Millisecond)
		v, _ := c.Node(2).Server("srv2").Peek("y")
		if string(v) != "old" {
			t.Errorf("y = %q after child abort + parent commit, want \"old\"", v)
		}
	})
}

func TestNestedDistributedChildCommit(t *testing.T) {
	runSim(t, fastConfig(), func(k *sim.Kernel, c *Cluster) {
		parent, _ := c.Node(1).Begin()
		child, _ := parent.Child()
		if err := child.Write("srv2", "y", []byte("c")); err != nil {
			t.Fatalf("child remote write: %v", err)
		}
		if err := child.Commit(); err != nil {
			t.Fatalf("child commit: %v", err)
		}
		k.Sleep(100 * time.Millisecond)
		if err := parent.Commit(); err != nil {
			t.Fatalf("parent commit: %v", err)
		}
		k.Sleep(500 * time.Millisecond)
		v, ok := c.Node(2).Server("srv2").Peek("y")
		if !ok || string(v) != "c" {
			t.Errorf("y = %q (%v), want committed child value \"c\"", v, ok)
		}
	})
}

func TestCrashRecoveryLocal(t *testing.T) {
	runSim(t, fastConfig(), func(k *sim.Kernel, c *Cluster) {
		n := c.Node(1)
		seed(t, n, "srv1", "a", "durable")
		// An uncommitted transaction in flight at crash time.
		tx, _ := n.Begin()
		tx.Write("srv1", "b", []byte("volatile"))
		n.Crash()
		n.Recover()
		k.Sleep(200 * time.Millisecond)
		v, ok := n.Server("srv1").Peek("a")
		if !ok || string(v) != "durable" {
			t.Errorf("a = %q (%v) after recovery, want \"durable\"", v, ok)
		}
		if _, ok := n.Server("srv1").Peek("b"); ok {
			t.Error("uncommitted write survived the crash")
		}
	})
}

func TestRPCTimeoutWhenRemoteDown(t *testing.T) {
	runSim(t, fastConfig(), func(k *sim.Kernel, c *Cluster) {
		c.Node(2).Crash()
		tx, _ := c.Node(1).Begin()
		err := tx.Write("srv2", "y", []byte("1"))
		if err == nil {
			t.Fatal("write to crashed site succeeded")
		}
		if err := tx.Abort(); err != nil {
			t.Fatalf("abort after failed op: %v", err)
		}
	})
}

func TestCommitAfterRemoteNoVoteAborts(t *testing.T) {
	runSim(t, fastConfig(), func(k *sim.Kernel, c *Cluster) {
		seed(t, c.Node(2), "srv2", "y", "old")
		tx, _ := c.Node(1).Begin()
		tx.Write("srv1", "x", []byte("1"))
		tx.Write("srv2", "y", []byte("2"))
		// Crash site 2 after the operation but before commit: its
		// volatile updates vanish, so at prepare time it must vote No
		// (after recovery) and the transaction aborts.
		c.Node(2).Crash()
		c.Node(2).Recover()
		k.Sleep(100 * time.Millisecond)
		err := tx.Commit()
		if !errors.Is(err, ErrAborted) {
			t.Fatalf("Commit = %v, want ErrAborted", err)
		}
		k.Sleep(300 * time.Millisecond)
		if v, _ := c.Node(2).Server("srv2").Peek("y"); string(v) != "old" {
			t.Errorf("y = %q, want \"old\"", v)
		}
	})
}
