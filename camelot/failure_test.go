package camelot

import (
	"errors"
	"testing"
	"time"

	"camelot/internal/sim"
	"camelot/internal/tid"
	"camelot/internal/transport"
	"camelot/internal/wal"
	"camelot/internal/wire"
)

// These tests exercise the failure behavior that motivates the
// non-blocking protocol (§3.3): a two-phase-commit subordinate that
// loses its coordinator inside the window of vulnerability stays
// blocked — holding its write locks — until the coordinator recovers,
// while non-blocking subordinates promote one of themselves to
// coordinator and finish.

// crashCoordinatorMidCommit begins a distributed update at site 1,
// starts commit on a background thread, and crashes site 1 at the
// given moment after commit was issued. It returns the cluster.
func crashCoordinatorMidCommit(t *testing.T, k *sim.Kernel, c *Cluster,
	opts Options, crashAfter time.Duration) {
	t.Helper()
	tx, err := c.Node(1).Begin()
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if err := tx.Write("srv1", "x", []byte("1")); err != nil {
		t.Fatalf("local write: %v", err)
	}
	if err := tx.Write("srv2", "y", []byte("2")); err != nil {
		t.Fatalf("remote write: %v", err)
	}
	if err := tx.Write("srv3", "z", []byte("3")); err != nil {
		t.Fatalf("remote write: %v", err)
	}
	k.Go("commit", func() {
		tx.CommitWith(opts) //nolint:errcheck // the coordinator dies mid-call
	})
	k.Sleep(crashAfter)
	c.Node(1).Crash()
}

// subPreparedAndBlocked reports whether the site's server still holds
// the transaction's write lock (i.e. another transaction cannot take
// it).
func subHoldsLock(c *Cluster, id SiteID, key string) bool {
	tx, err := c.Node(id).Begin()
	if err != nil {
		return true
	}
	defer tx.Abort() //nolint:errcheck
	err = tx.Write(srvName(id), key, []byte("probe"))
	return err != nil
}

func TestTwoPhaseBlocksOnCoordinatorCrash(t *testing.T) {
	cfg := fastConfig()
	cfg.InquireInterval = 100 * time.Millisecond
	runSim(t, cfg, func(k *sim.Kernel, c *Cluster) {
		// With Fast params: prepare reaches subs at ~1ms, their forces
		// finish ~2ms, votes back ~3ms; crash before the coordinator's
		// commit force completes.
		crashCoordinatorMidCommit(t, k, c, Options{}, 4*time.Millisecond)

		// The subordinates are inside the window of vulnerability:
		// prepared, holding locks, and must stay blocked.
		k.Sleep(2 * time.Second)
		if !subHoldsLock(c, 2, "y") {
			t.Fatal("2PC subordinate released its locks with the outcome unknown")
		}
		inq := c.Node(2).TM().Stats().Inquiries
		if inq == 0 {
			t.Error("blocked subordinate never inquired at the coordinator")
		}

		// Recovery of the coordinator resolves the transaction (by
		// presumed abort if its commit record never became durable).
		c.Node(1).Recover()
		k.Sleep(2 * time.Second)
		if subHoldsLock(c, 2, "y") {
			t.Fatal("subordinate still blocked after coordinator recovery")
		}
	})
}

func TestNonBlockingSurvivesCoordinatorCrashBeforeReplication(t *testing.T) {
	runSim(t, fastConfig(), func(k *sim.Kernel, c *Cluster) {
		// Crash right after the subs prepare (~4ms): no replication
		// happened, so the survivors form an abort quorum (Qa=2 of 3).
		crashCoordinatorMidCommit(t, k, c, Options{Protocol: NonBlocking}, 4*time.Millisecond)
		k.Sleep(3 * time.Second)
		if subHoldsLock(c, 2, "y") || subHoldsLock(c, 3, "z") {
			t.Fatal("non-blocking subordinates stayed blocked after a single failure")
		}
		// Nothing may have committed partially.
		if _, ok := c.Node(2).Server("srv2").Peek("y"); ok {
			t.Error("site 2 committed without a quorum")
		}
		proms := c.Node(2).TM().Stats().Promotions + c.Node(3).TM().Stats().Promotions
		if proms == 0 {
			t.Error("no subordinate promoted itself to coordinator")
		}
	})
}

func TestNonBlockingSurvivesCoordinatorCrashAfterReplication(t *testing.T) {
	runSim(t, fastConfig(), func(k *sim.Kernel, c *Cluster) {
		// Crash after the replication phase has reached the subs
		// (~8ms with Fast params: prepare 1+1, vote 1, replicate 1+1,
		// plus forces at 1ms each) but before outcome notifications.
		crashCoordinatorMidCommit(t, k, c, Options{Protocol: NonBlocking}, 8*time.Millisecond)
		k.Sleep(3 * time.Second)
		if subHoldsLock(c, 2, "y") || subHoldsLock(c, 3, "z") {
			t.Fatal("non-blocking subordinates stayed blocked after a single failure")
		}
		// If both subs had forced intent records, the decision must be
		// commit; verify both sites agree either way.
		_, ok2 := c.Node(2).Server("srv2").Peek("y")
		_, ok3 := c.Node(3).Server("srv3").Peek("z")
		if ok2 != ok3 {
			t.Fatalf("split decision: site2 committed=%v site3 committed=%v", ok2, ok3)
		}
	})
}

func TestNonBlockingBlocksOnTwoFailures(t *testing.T) {
	runSim(t, fastConfig(), func(k *sim.Kernel, c *Cluster) {
		// Crash the coordinator AND one subordinate after replication
		// began: the survivor alone (1 of 3) can form neither quorum
		// (Qc=2, Qa=2) and must block — "all sites may block if there
		// are two or more failures."
		crashCoordinatorMidCommit(t, k, c, Options{Protocol: NonBlocking}, 8*time.Millisecond)
		c.Node(3).Crash()
		k.Sleep(5 * time.Second)
		if !subHoldsLock(c, 2, "y") {
			t.Fatal("lone survivor decided without a quorum")
		}
	})
}

func TestPreparedSubCrashRecoversAndResolves(t *testing.T) {
	runSim(t, fastConfig(), func(k *sim.Kernel, c *Cluster) {
		tx, _ := c.Node(1).Begin()
		tx.Write("srv1", "x", []byte("1"))
		tx.Write("srv2", "y", []byte("2"))
		var commitErr error
		committed := false
		k.Go("commit", func() {
			commitErr = tx.Commit()
			committed = true
		})
		// Crash subordinate 2 after it prepared (~4ms) but before the
		// outcome reaches it.
		k.Sleep(4 * time.Millisecond)
		c.Node(2).Crash()
		k.Sleep(100 * time.Millisecond)
		c.Node(2).Recover()
		// The coordinator keeps retrying COMMIT; the recovered
		// subordinate is in doubt and inquires. Both paths converge.
		k.Sleep(3 * time.Second)
		if !committed {
			t.Fatal("coordinator's commit call never returned")
		}
		if commitErr == nil {
			// Commit succeeded: the recovered subordinate must apply y.
			v, ok := c.Node(2).Server("srv2").Peek("y")
			if !ok || string(v) != "2" {
				t.Fatalf("recovered sub: y = %q (%v), want \"2\"", v, ok)
			}
		} else if !errors.Is(commitErr, ErrAborted) {
			t.Fatalf("commit returned %v", commitErr)
		} else if _, ok := c.Node(2).Server("srv2").Peek("y"); ok {
			t.Fatal("aborted transaction's write visible after recovery")
		}
		if subHoldsLock(c, 2, "y") {
			t.Fatal("recovered subordinate still holds in-doubt locks")
		}
	})
}

func TestPartitionBlocksTwoPhaseThenHeals(t *testing.T) {
	cfg := fastConfig()
	cfg.InquireInterval = 100 * time.Millisecond
	runSim(t, cfg, func(k *sim.Kernel, c *Cluster) {
		tx, _ := c.Node(1).Begin()
		tx.Write("srv1", "x", []byte("1"))
		tx.Write("srv2", "y", []byte("2"))
		var commitErr error
		done := false
		k.Go("commit", func() {
			commitErr = tx.Commit()
			done = true
		})
		// Partition the coordinator from the subordinate after the
		// prepare round (~4ms). The sub is prepared and blocked; the
		// coordinator has already decided (or will) and retries.
		k.Sleep(4 * time.Millisecond)
		c.Network().SetPartition(1, 2, true)
		k.Sleep(time.Second)
		if done && commitErr == nil {
			// Coordinator committed before the cut: sub must still be
			// blocked.
			if !subHoldsLock(c, 2, "y") {
				t.Fatal("partitioned subordinate resolved without the coordinator")
			}
		}
		c.Network().SetPartition(1, 2, false)
		k.Sleep(3 * time.Second)
		if !done {
			t.Fatal("commit call never returned after partition healed")
		}
		if subHoldsLock(c, 2, "y") {
			t.Fatal("subordinate blocked after partition healed")
		}
	})
}

func TestProtocolsCompleteUnderMessageLoss(t *testing.T) {
	cfg := fastConfig()
	cfg.LossRate = 0.2
	for _, opts := range []Options{{}, {Protocol: NonBlocking}} {
		opts := opts
		runSim(t, cfg, func(k *sim.Kernel, c *Cluster) {
			for i := 0; i < 10; i++ {
				tx, err := c.Node(1).Begin()
				if err != nil {
					t.Fatalf("Begin: %v", err)
				}
				if err := tx.Write("srv1", "x", []byte{byte(i)}); err != nil {
					t.Fatalf("write: %v", err)
				}
				// Remote writes may time out under loss (RPCs are
				// reliable here but the protocol datagrams are not);
				// drive the distributed protocol regardless.
				if err := tx.Write("srv2", "y", []byte{byte(i)}); err != nil {
					tx.Abort() //nolint:errcheck
					continue
				}
				if err := tx.CommitWith(opts); err != nil && !errors.Is(err, ErrAborted) {
					t.Fatalf("commit %d: %v", i, err)
				}
			}
			// Every transaction eventually resolved; no locks leak.
			k.Sleep(5 * time.Second)
			if subHoldsLock(c, 2, "y") {
				t.Fatal("locks leaked under message loss")
			}
		})
	}
}

func TestCoordinatorAbortsWhenSubNeverResponds(t *testing.T) {
	cfg := fastConfig()
	cfg.RetryInterval = 20 * time.Millisecond
	runSim(t, cfg, func(k *sim.Kernel, c *Cluster) {
		tx, _ := c.Node(1).Begin()
		tx.Write("srv1", "x", []byte("1"))
		tx.Write("srv2", "y", []byte("2"))
		// Site 2 dies before prepare; it never votes.
		c.Node(2).Crash()
		err := tx.Commit()
		if !errors.Is(err, ErrAborted) {
			t.Fatalf("Commit with dead subordinate = %v, want ErrAborted", err)
		}
		// Coordinator's own updates must be undone (the release is an
		// asynchronous one-way call; give it a moment).
		k.Sleep(50 * time.Millisecond)
		if _, ok := c.Node(1).Server("srv1").Peek("x"); ok {
			t.Fatal("coordinator kept updates of an aborted transaction")
		}
	})
}

// kindOf names a datagram's protocol kind (KInvalid for RPC traffic).
func kindOf(payload any) wire.Kind {
	if msg, ok := payload.(*wire.Msg); ok {
		return msg.Kind
	}
	return wire.KInvalid
}

// nbSplitAttempt writes one key at each of sites 1–3, installs drop
// (consulted with the time since installation) until the end of a 2 s
// fault phase, commits under the non-blocking protocol from site 1,
// calls during 111 ms into the commit, then heals and lets everything
// settle. Both scenarios end in an abort quorum that site 2 has acted
// on, so the only correct answer for the client is ABORT and no site
// may hold COMMIT.
func nbSplitAttempt(t *testing.T, drop func(since time.Duration, from, to tid.SiteID, kind wire.Kind) bool,
	during func(k *sim.Kernel, c *Cluster)) {
	t.Helper()
	runSim(t, fastConfig(), func(k *sim.Kernel, c *Cluster) {
		tx, err := c.Node(1).Begin()
		if err != nil {
			t.Fatalf("Begin: %v", err)
		}
		for id := SiteID(1); id <= 3; id++ {
			if err := tx.Write(srvName(id), "k", []byte{byte('0' + id)}); err != nil {
				t.Fatalf("write at site %d: %v", id, err)
			}
		}
		t0, heal := k.Now(), false
		c.Network().SetShaper(func(from, to tid.SiteID, payload any, _ bool) transport.Shape {
			return transport.Shape{Drop: !heal && drop(k.Now()-t0, from, to, kindOf(payload))}
		})
		var commitErr error
		done := false
		k.Go("commit", func() {
			commitErr = tx.CommitWith(Options{Protocol: NonBlocking})
			done = true
		})
		k.Sleep(111 * time.Millisecond)
		if during != nil {
			during(k, c)
		}
		k.Sleep(2 * time.Second)
		heal = true
		k.Sleep(5 * time.Second)
		if !done || !errors.Is(commitErr, ErrAborted) {
			t.Errorf("client heard done=%v err=%v; site 2 aborted, so only ABORT is right", done, commitErr)
		}
		for id := SiteID(1); id <= 3; id++ {
			if out := c.Node(id).TM().OutcomeOf(tx.ID().Family); out == OutcomeCommit {
				t.Errorf("site %d resolved COMMIT after an abort quorum decided", id)
			}
		}
	})
}

// A coordinator still collecting votes may pledge abort to a promoted
// subordinate: it holds no commit intent yet. Site 2 promotes, forces
// its pledge and gets site 1's, an abort quorum of two; it aborts, but
// its outcome to site 1 is lost. Site 3's vote reaches site 1 only
// after 400 ms, and site 1 must then decide abort where it would
// replicate — replicating would commit at a quorum of site 3 and
// itself, and its own pledge put it in the other quorum.
func TestNBPledgedCoordinatorDoesNotReplicate(t *testing.T) {
	nbSplitAttempt(t, func(since time.Duration, from, to tid.SiteID, kind wire.Kind) bool {
		switch {
		case from == 2 && to == 3:
			return true
		case from == 2 && to == 1:
			return kind == wire.KNBOutcome
		case from == 3 && to == 1:
			late := since >= 400*time.Millisecond
			return !late || (kind != wire.KNBVote && kind != wire.KNBReplicateAck)
		}
		return false
	}, nil)
}

// Abort-intent amnesia across a restart. Both subordinates promote
// and pledge, and site 3 decides abort on the quorum {3, 2}; it crashes
// before its lazy ABORT record is on the log and recovers 5 ms later,
// with only its prepare and abort-intent records. Recovery must restore
// the pledge: restored as merely prepared, site 3 re-votes Yes, joins
// site 1's commit quorum, and the client hears COMMIT while site 2 has
// aborted.
func TestNBAbortIntentSurvivesRestart(t *testing.T) {
	phaseB := false
	nbSplitAttempt(t, func(_ time.Duration, from, to tid.SiteID, kind wire.Kind) bool {
		switch {
		case from == 2 && to == 1:
			return kind != wire.KNBVote
		case from == 3 && to == 1:
			return !phaseB || (kind != wire.KNBVote && kind != wire.KNBReplicateAck)
		case from == 2 && to == 3:
			return phaseB || kind == wire.KNBOutcome
		}
		return false
	}, func(k *sim.Kernel, c *Cluster) {
		c.Node(3).Crash()
		phaseB = true
		k.Sleep(5 * time.Millisecond)
		if err := c.Node(3).Recover(); err != nil {
			t.Fatalf("site 3 recovery: %v", err)
		}
	})
}

// ackedAnyway is a device that acknowledges every write, damaged or
// not: the silent media corruption a fault-injected write stands for
// once later writes have landed behind it.
type ackedAnyway struct{ wal.Store }

func (s ackedAnyway) Append(block []byte) error {
	s.Store.Append(block) //nolint:errcheck // the device claims success regardless
	return nil
}

// A simulated site whose log holds a damaged block before its tail
// must fail-stop in Recover: stay crashed, refuse work, stay off the
// network, and refuse again on a second try — never serve from a log
// it cannot trust.
func TestRecoverFailStopsOnMidLogCorruption(t *testing.T) {
	cfg := fastConfig()
	cfg.WrapStore = func(id SiteID, s wal.Store) wal.Store {
		if id != 1 {
			return s
		}
		fs := wal.NewFaultStore(s, nil)
		fs.ArmAppend(0, wal.DamageBitflip) // the first of two device writes
		return ackedAnyway{fs}
	}
	runSim(t, cfg, func(k *sim.Kernel, c *Cluster) {
		n := c.Node(1)
		for _, key := range []string{"a", "b"} {
			tx, err := n.Begin()
			if err != nil {
				t.Fatalf("Begin: %v", err)
			}
			if err := tx.Write("srv1", key, []byte("1")); err != nil {
				t.Fatalf("Write %s: %v", key, err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatalf("Commit %s: %v", key, err)
			}
		}
		if got := c.Trace().Site(1).DeviceWrites; got != 2 {
			t.Fatalf("site 1 made %d device writes, want 2", got)
		}
		n.Crash()

		for attempt := 1; attempt <= 2; attempt++ {
			err := n.Recover()
			if !errors.Is(err, wal.ErrCorrupt) {
				t.Fatalf("Recover #%d = %v, want wal.ErrCorrupt", attempt, err)
			}
			if !n.Crashed() {
				t.Fatalf("after failed Recover #%d the node is up", attempt)
			}
			if _, err := n.Begin(); !errors.Is(err, ErrCrashed) {
				t.Fatalf("Begin after failed Recover #%d = %v, want ErrCrashed", attempt, err)
			}
			before, recv := c.Trace().Site(2).MsgsDropped, c.Trace().Site(1).MsgsRecv
			c.Network().Send(2, 1, &wire.Msg{Kind: wire.KInquire, TID: tid.Top(1), From: 2, To: 1})
			k.Sleep(time.Second)
			if got := c.Trace().Site(2).MsgsDropped - before; got != 1 {
				t.Fatalf("after failed Recover #%d, a datagram to site 1 counted %d drops, want 1", attempt, got)
			}
			if got := c.Trace().Site(1).MsgsRecv; got != recv {
				t.Fatalf("after failed Recover #%d, site 1 received %d datagrams", attempt, got-recv)
			}
		}
	})
}
