package camelot

// Conformance tests pinning the paper's commit-protocol budgets.
// §3.2–§3.4 argue about protocols in units of log forces and
// datagrams per site; these tests assert those budgets exactly, so a
// regression that adds a force or a message round anywhere in the
// protocol stack fails a test rather than quietly shifting a latency
// curve.

import (
	"strings"
	"testing"
	"time"

	"camelot/internal/sim"
	"camelot/internal/trace"
)

// traceConfig is fastConfig with tracing on and retry timers pushed
// far beyond the transaction's lifetime, so every counted datagram and
// force is a protocol necessity, never a retransmission.
func traceConfig() Config {
	cfg := fastConfig()
	cfg.Trace = true
	cfg.RetryInterval = 10 * time.Second
	cfg.InquireInterval = 10 * time.Second
	cfg.PromotionTimeout = 10 * time.Second
	cfg.RPCTimeout = 5 * time.Second
	return cfg
}

// commitTraced runs one transaction built by ops and committed with
// opts, drains the delayed commit records and batched acks, and
// returns the transaction's id and the cluster's collector. A non-nil
// setup runs first (e.g. to seed data); its activity is cleared from
// the collector so only the traced transaction is counted.
func commitTraced(t *testing.T, opts Options, setup func(k *sim.Kernel, cl *Cluster), ops func(tx *Tx) error) (TID, *trace.Collector) {
	t.Helper()
	var (
		id TID
		c  *Cluster
	)
	runSim(t, traceConfig(), func(k *sim.Kernel, cl *Cluster) {
		c = cl
		if setup != nil {
			setup(k, cl)
			cl.Trace().Reset()
		}
		tx, err := cl.Node(1).Begin()
		if err != nil {
			t.Errorf("Begin: %v", err)
			return
		}
		id = tx.ID()
		if err := ops(tx); err != nil {
			t.Errorf("operations: %v", err)
			return
		}
		if err := tx.CommitWith(opts); err != nil {
			t.Errorf("Commit: %v", err)
			return
		}
		// The delayed-commit optimization defers subordinate commit
		// records to the log flusher and acks to the ack flusher;
		// let them drain so the budget is the whole protocol's.
		k.Sleep(2 * time.Second)
	})
	return id, c.Trace()
}

// writeAll updates one key at each of the three sites.
func writeAll(tx *Tx) error {
	for id := SiteID(1); id <= 3; id++ {
		if err := tx.Write(srvName(id), "k", []byte("v")); err != nil {
			return err
		}
	}
	return nil
}

func wantBudget(t *testing.T, tr *trace.Collector, id TID, site SiteID, want trace.FamilyCounters) {
	t.Helper()
	if got := tr.Family(id, site); got != want {
		t.Errorf("%v budget = %+v, want %+v", site, got, want)
	}
}

// TestTwoPhaseBudget pins the optimized presumed-abort protocol of
// §3.2 for a three-site update transaction: the coordinator forces
// once (its commit record), each update subordinate forces once (its
// prepare record — the commit record is written lazily after the
// locks drop), and the messages are exactly one prepare/vote round
// plus one commit/ack round.
func TestTwoPhaseBudget(t *testing.T) {
	id, tr := commitTraced(t, Options{}, nil, writeAll)
	// Coordinator appends UPDATE, COMMIT, END; forces only COMMIT.
	wantBudget(t, tr, id, 1, trace.FamilyCounters{LogAppends: 3, LogForces: 1, MsgsSent: 4, MsgsRecv: 4})
	// Subordinates append UPDATE, PREPARE, COMMIT; force only PREPARE.
	for site := SiteID(2); site <= 3; site++ {
		wantBudget(t, tr, id, site, trace.FamilyCounters{LogAppends: 3, LogForces: 1, MsgsSent: 2, MsgsRecv: 2})
	}
}

// TestDelayedCommitSavesOneForcePerSubordinate pins §3.2's claim for
// the delayed-commit optimization: turning it off (ForceSubCommit)
// costs each update subordinate exactly one additional log force, and
// changes nothing else — not the coordinator's forces, not a single
// datagram anywhere.
func TestDelayedCommitSavesOneForcePerSubordinate(t *testing.T) {
	idOpt, trOpt := commitTraced(t, Options{}, nil, writeAll)
	idForced, trForced := commitTraced(t, Options{ForceSubCommit: true}, nil, writeAll)

	for site := SiteID(1); site <= 3; site++ {
		opt := trOpt.Family(idOpt, site)
		forced := trForced.Family(idForced, site)
		wantExtra := 1 // each update subordinate pays one more force
		if site == 1 {
			wantExtra = 0 // the coordinator always forces its commit record
		}
		if forced.LogForces != opt.LogForces+wantExtra {
			t.Errorf("%v: forces %d optimized, %d forced; want delta %d",
				SiteID(site), opt.LogForces, forced.LogForces, wantExtra)
		}
		if forced.MsgsSent != opt.MsgsSent || forced.MsgsRecv != opt.MsgsRecv {
			t.Errorf("%v: message budget changed: optimized %+v, forced %+v",
				SiteID(site), opt, forced)
		}
		if forced.LogAppends != opt.LogAppends {
			t.Errorf("%v: append budget changed: optimized %d, forced %d",
				SiteID(site), opt.LogAppends, forced.LogAppends)
		}
	}
}

// TestNonBlockingAddsOneReplicationRound pins §3.3: relative to
// two-phase commit, the non-blocking protocol costs exactly one more
// round — the coordinator forces one extra record (its prepare) and
// exchanges one replicate/ack pair with each subordinate, and each
// subordinate forces one extra record (its replicated intent).
func TestNonBlockingAddsOneReplicationRound(t *testing.T) {
	id2pc, tr2pc := commitTraced(t, Options{}, nil, writeAll)
	idNB, trNB := commitTraced(t, Options{Protocol: NonBlocking}, nil, writeAll)

	const subs = 2
	coord2, coordNB := tr2pc.Family(id2pc, 1), trNB.Family(idNB, 1)
	if coordNB.LogForces != coord2.LogForces+1 {
		t.Errorf("coordinator forces: 2PC %d, NB %d; want exactly one more",
			coord2.LogForces, coordNB.LogForces)
	}
	if coordNB.MsgsSent != coord2.MsgsSent+subs || coordNB.MsgsRecv != coord2.MsgsRecv+subs {
		t.Errorf("coordinator messages: 2PC %+v, NB %+v; want one replicate/ack pair per subordinate",
			coord2, coordNB)
	}
	for site := SiteID(2); site <= 3; site++ {
		s2, sNB := tr2pc.Family(id2pc, site), trNB.Family(idNB, site)
		if sNB.LogForces != s2.LogForces+1 {
			t.Errorf("%v forces: 2PC %d, NB %d; want exactly one more", site, s2.LogForces, sNB.LogForces)
		}
		if sNB.MsgsSent != s2.MsgsSent+1 || sNB.MsgsRecv != s2.MsgsRecv+1 {
			t.Errorf("%v messages: 2PC %+v, NB %+v; want one replicate/ack pair more", site, s2, sNB)
		}
	}
	// And the absolute NB budget, so the baseline can't drift either.
	wantBudget(t, trNB, idNB, 1, trace.FamilyCounters{LogAppends: 5, LogForces: 2, MsgsSent: 6, MsgsRecv: 6})
}

// readOnlyOps updates sites 1 and 2 but only reads at site 3.
func readOnlyOps(tx *Tx) error {
	if err := tx.Write(srvName(1), "k", []byte("v")); err != nil {
		return err
	}
	if err := tx.Write(srvName(2), "k", []byte("v")); err != nil {
		return err
	}
	_, err := tx.Read(srvName(3), "k")
	return err
}

// TestReadOnlySubordinateBudget pins §3.4: a read-only subordinate
// writes no log records at all, sends exactly one message (its
// READ-ONLY vote), and receives exactly one (the prepare); it is
// excluded from phase two entirely. The budget holds under both
// protocols — in the non-blocking protocol the commit quorum forms
// from the update sites, leaving the read-only site out of
// replication too.
func TestReadOnlySubordinateBudget(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"TwoPhase", Options{}},
		{"NonBlocking", Options{Protocol: NonBlocking}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			id, tr := commitTraced(t, tc.opts,
				func(k *sim.Kernel, cl *Cluster) { seed(t, cl.Node(3), srvName(3), "k", "v0") },
				readOnlyOps)
			wantBudget(t, tr, id, 3, trace.FamilyCounters{LogAppends: 0, LogForces: 0, MsgsSent: 1, MsgsRecv: 1})
			if sc := tr.Site(3); sc.LogForces != 0 || sc.LogAppends != 0 {
				t.Errorf("read-only site log activity: %+v, want none", sc)
			}
		})
	}
}

// timelineRun executes one traced three-site commit under datagram
// loss with kernel scheduling hooks wired in, and returns the
// formatted event log plus the commit error (nil or not, it must be
// the same on every run with the same seed).
func timelineRun(t *testing.T, seed int64) (string, error) {
	t.Helper()
	k := sim.New(seed)
	cfg := fastConfig()
	cfg.Trace = true
	cfg.LossRate = 0.05
	c := NewCluster(k, cfg)
	tr := c.Trace()
	k.SetHooks(sim.Hooks{
		ThreadSwitch: func(name string, _ time.Duration) { tr.ThreadSwitch(name) },
		TimerFire:    func(name string, _ time.Duration) { tr.TimerFire(name) },
	})
	for id := SiteID(1); id <= 3; id++ {
		c.AddNode(id).AddServer(srvName(id))
	}
	var commitErr error
	k.Go("txn", func() {
		tx, err := c.Node(1).Begin()
		if err != nil {
			commitErr = err
		} else if err := writeAll(tx); err != nil {
			commitErr = err
		} else {
			commitErr = tx.Commit()
		}
		k.Sleep(time.Second)
		k.Stop()
	})
	k.RunUntil(5 * time.Minute)
	if msg := k.Deadlocked(); msg != "" {
		t.Fatal(msg)
	}
	var sb strings.Builder
	for _, ev := range tr.Events() {
		sb.WriteString(ev.String())
		sb.WriteByte('\n')
	}
	return sb.String(), commitErr
}

// TestTraceReplayDeterminism: the simulation is deterministic under a
// fixed seed, so two runs produce byte-identical event timelines —
// thread switches, timer fires, datagram losses and all. This is what
// makes a captured trace replayable evidence rather than one sample.
func TestTraceReplayDeterminism(t *testing.T) {
	log1, err1 := timelineRun(t, 42)
	log2, err2 := timelineRun(t, 42)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("outcomes differ across replays: %v vs %v", err1, err2)
	}
	if log1 != log2 {
		t.Fatalf("event timelines differ across replays with the same seed:\nrun1 %d bytes, run2 %d bytes",
			len(log1), len(log2))
	}
	if len(log1) == 0 {
		t.Fatal("empty event timeline")
	}
	// A different seed must be allowed to differ (the loss pattern
	// moves), proving the comparison is not vacuous.
	log3, _ := timelineRun(t, 43)
	if log1 == log3 {
		t.Error("timelines for different seeds are identical; tracing is not capturing schedule detail")
	}
}
