package camelot

import (
	"testing"
	"time"

	"camelot/internal/sim"
)

func TestMulticastOptionCommits(t *testing.T) {
	runSim(t, fastConfig(), func(k *sim.Kernel, c *Cluster) {
		tx, _ := c.Node(1).Begin()
		tx.Write("srv1", "x", []byte("1")) //nolint:errcheck
		tx.Write("srv2", "y", []byte("2")) //nolint:errcheck
		tx.Write("srv3", "z", []byte("3")) //nolint:errcheck
		if err := tx.CommitWith(Options{Multicast: true, Protocol: NonBlocking}); err != nil {
			t.Fatalf("multicast NB commit: %v", err)
		}
		k.Sleep(500 * time.Millisecond)
		for id := SiteID(2); id <= 3; id++ {
			key := []string{"", "", "y", "z"}[id]
			if _, ok := c.Node(id).Server(srvName(id)).Peek(key); !ok {
				t.Errorf("site %d missing %s", id, key)
			}
		}
	})
}

func TestDisableReadOnlyOptThroughFacade(t *testing.T) {
	runSim(t, fastConfig(), func(k *sim.Kernel, c *Cluster) {
		seed(t, c.Node(2), "srv2", "y", "1")
		before := c.Node(2).Log().Appends()
		tx, _ := c.Node(1).Begin()
		tx.Write("srv1", "x", []byte("1")) //nolint:errcheck
		tx.Read("srv2", "y")               //nolint:errcheck
		if err := tx.CommitWith(Options{DisableReadOnlyOpt: true}); err != nil {
			t.Fatalf("commit: %v", err)
		}
		k.Sleep(500 * time.Millisecond)
		// With the ablation flag, the read-only sub prepares on disk.
		if got := c.Node(2).Log().Appends(); got == before {
			t.Error("DisableReadOnlyOpt did not force the subordinate through the update path")
		}
	})
}

func TestStatsExposedThroughFacade(t *testing.T) {
	runSim(t, fastConfig(), func(k *sim.Kernel, c *Cluster) {
		n := c.Node(1)
		seed(t, n, "srv1", "a", "1")
		st := n.TM().Stats()
		if st.Begun != 1 || st.Committed != 1 {
			t.Errorf("Stats = %+v, want 1 begun / 1 committed", st)
		}
		if sc := c.Trace().Site(1); sc.Begun != st.Begun || sc.Committed != st.Committed {
			t.Errorf("Stats = %+v is not a view of the site's counters %+v", st, sc)
		}
	})
}

func TestSequentialTransactionsReuseLocksCleanly(t *testing.T) {
	// A long serial run on one element: every commit must release in
	// time for the next transaction; any lock leak shows up as a
	// timeout.
	runSim(t, fastConfig(), func(k *sim.Kernel, c *Cluster) {
		for i := 0; i < 40; i++ {
			tx, err := c.Node(1).Begin()
			if err != nil {
				t.Fatalf("begin %d: %v", i, err)
			}
			if err := tx.Write("srv1", "hot", []byte{byte(i)}); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
			if err := tx.Write("srv2", "hot", []byte{byte(i)}); err != nil {
				t.Fatalf("remote write %d: %v", i, err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatalf("commit %d: %v", i, err)
			}
		}
	})
}

func TestOperationsOnCrashedNodeFail(t *testing.T) {
	runSim(t, fastConfig(), func(k *sim.Kernel, c *Cluster) {
		n := c.Node(1)
		tx, _ := n.Begin()
		n.Crash()
		if _, err := n.Begin(); err == nil {
			t.Error("Begin on crashed node succeeded")
		}
		if err := tx.Write("srv1", "a", []byte("1")); err == nil {
			t.Error("Write on crashed node succeeded")
		}
		if err := tx.Commit(); err == nil {
			t.Error("Commit on crashed node succeeded")
		}
		if _, err := tx.Child(); err == nil {
			t.Error("Child on crashed node succeeded")
		}
		n.Recover()
		if _, err := n.Begin(); err != nil {
			t.Errorf("Begin after recovery: %v", err)
		}
	})
}

func TestUnknownServerNameFails(t *testing.T) {
	runSim(t, fastConfig(), func(k *sim.Kernel, c *Cluster) {
		tx, _ := c.Node(1).Begin()
		if err := tx.Write("no-such-server", "k", []byte("v")); err == nil {
			t.Error("write to unknown server succeeded")
		}
		if _, err := tx.Read("no-such-server", "k"); err == nil {
			t.Error("read from unknown server succeeded")
		}
		tx.Abort() //nolint:errcheck
	})
}

func TestDoubleCrashAndRecoverIsIdempotent(t *testing.T) {
	runSim(t, fastConfig(), func(k *sim.Kernel, c *Cluster) {
		n := c.Node(1)
		seed(t, n, "srv1", "a", "v")
		n.Crash()
		n.Crash() // second crash is a no-op
		n.Recover()
		n.Recover() // second recover is a no-op
		k.Sleep(100 * time.Millisecond)
		if v, _ := n.Server("srv1").Peek("a"); string(v) != "v" {
			t.Errorf("a = %q after double crash/recover", v)
		}
	})
}
