package camelot

// Conformance tests pinning Paxos Commit's fault-free budgets, beside
// the 2PC and NB budgets of conformance_test.go. Gray & Lamport's
// analysis gives the protocol 2F(N+1)+3N+1 messages in the fault-free
// case and — with every acceptor co-located with a participant, the
// vote request carrying the leader's 2a, and acceptors batching all N
// instances into one accepted record — the same log-force and
// message-delay budget as two-phase commit when F=0. These tests assert the per-site counts exactly, so any stray
// datagram or force anywhere in the Paxos stack fails a test rather
// than quietly shifting a latency curve.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"camelot/internal/sim"
	"camelot/internal/trace"
)

// runSimN is runSim for n sites (1..n, one server per site), for the
// F=2 budgets that need five participants.
func runSimN(t *testing.T, cfg Config, n int, fn func(k *sim.Kernel, c *Cluster)) {
	t.Helper()
	k := sim.New(1)
	c := NewCluster(k, cfg)
	for id := SiteID(1); id <= SiteID(n); id++ {
		node := c.AddNode(id)
		node.AddServer(srvName(id))
	}
	k.Go("test", func() {
		fn(k, c)
		k.Stop()
	})
	k.RunUntil(10 * time.Minute)
	if msg := k.Deadlocked(); msg != "" {
		t.Fatal(msg)
	}
}

// commitTracedN is commitTraced over an n-site cluster.
func commitTracedN(t *testing.T, opts Options, n int, setup func(k *sim.Kernel, cl *Cluster), ops func(tx *Tx) error) (TID, *trace.Collector) {
	t.Helper()
	var (
		id TID
		c  *Cluster
	)
	runSimN(t, traceConfig(), n, func(k *sim.Kernel, cl *Cluster) {
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
		k.Sleep(2 * time.Second)
	})
	return id, c.Trace()
}

// writeAllN updates one key at each of n sites.
func writeAllN(n int) func(tx *Tx) error {
	return func(tx *Tx) error {
		for id := SiteID(1); id <= SiteID(n); id++ {
			if err := tx.Write(srvName(id), "k", []byte("v")); err != nil {
				return err
			}
		}
		return nil
	}
}

// TestProtocolBudgetTable is the three-protocol budget table:
// (protocol × F × workload mix) → exact per-site appends, forces and
// datagrams. The Paxos rows derive from Gray & Lamport with the
// ballot-0, co-location and batched-accept optimizations applied; the
// 2PC and NB rows restate the §3.2/§3.3 budgets so the three columns
// are pinned side by side.
func TestProtocolBudgetTable(t *testing.T) {
	type row struct {
		name  string
		opts  Options
		n     int                             // cluster size
		write func(tx *Tx) error              // workload
		ro    bool                            // readOnlyOps workload (site 3 reads only)
		want  map[SiteID]trace.FamilyCounters // per-site budget
	}
	rows := []row{
		// Two-phase commit, all sites updating: coordinator forces its
		// commit record; subordinates force their prepare.
		{
			name: "2pc/writeAll", opts: Options{}, n: 3, write: writeAll,
			want: map[SiteID]trace.FamilyCounters{
				1: {LogAppends: 3, LogForces: 1, MsgsSent: 4, MsgsRecv: 4},
				2: {LogAppends: 3, LogForces: 1, MsgsSent: 2, MsgsRecv: 2},
				3: {LogAppends: 3, LogForces: 1, MsgsSent: 2, MsgsRecv: 2},
			},
		},
		// Two-phase commit, read-only mix: the read-only site answers
		// one vote and is excluded from phase two.
		{
			name: "2pc/readOnly", opts: Options{}, n: 3, ro: true,
			want: map[SiteID]trace.FamilyCounters{
				1: {LogAppends: 3, LogForces: 1, MsgsSent: 3, MsgsRecv: 3},
				2: {LogAppends: 3, LogForces: 1, MsgsSent: 2, MsgsRecv: 2},
				3: {LogAppends: 0, LogForces: 0, MsgsSent: 1, MsgsRecv: 1},
			},
		},
		// Non-blocking commit: one replication round on top of 2PC.
		{
			name: "nb/writeAll", opts: Options{Protocol: NonBlocking}, n: 3, write: writeAll,
			want: map[SiteID]trace.FamilyCounters{
				1: {LogAppends: 5, LogForces: 2, MsgsSent: 6, MsgsRecv: 6},
				2: {LogAppends: 4, LogForces: 2, MsgsSent: 3, MsgsRecv: 3},
				3: {LogAppends: 4, LogForces: 2, MsgsSent: 3, MsgsRecv: 3},
			},
		},
		// Paxos Commit, F=0: the sole acceptor is the coordinator, whose
		// batched accepted record doubles as its commit-point force — the
		// delay budget (forces and datagrams per site) is exactly 2PC's.
		// Only the coordinator's append count differs (the accepted
		// record is a fourth, unforced append).
		{
			name: "paxos/F=0/writeAll", opts: Options{Protocol: Paxos}, n: 3, write: writeAll,
			want: map[SiteID]trace.FamilyCounters{
				1: {LogAppends: 4, LogForces: 1, MsgsSent: 4, MsgsRecv: 4},
				2: {LogAppends: 3, LogForces: 1, MsgsSent: 2, MsgsRecv: 2},
				3: {LogAppends: 3, LogForces: 1, MsgsSent: 2, MsgsRecv: 2},
			},
		},
		{
			name: "paxos/F=0/readOnly", opts: Options{Protocol: Paxos}, n: 3, ro: true,
			want: map[SiteID]trace.FamilyCounters{
				1: {LogAppends: 4, LogForces: 1, MsgsSent: 3, MsgsRecv: 3},
				2: {LogAppends: 3, LogForces: 1, MsgsSent: 2, MsgsRecv: 2},
				3: {LogAppends: 0, LogForces: 0, MsgsSent: 1, MsgsRecv: 1},
			},
		},
		// Paxos Commit, F=1 over three sites: all three host acceptors.
		// Each participant pays one extra force (its half of the
		// acceptor's batched accepted record); each subordinate's 2a's and
		// 2b replace its single vote datagram, and the leader's 2a rides
		// its vote request.
		{
			name: "paxos/F=1/writeAll", opts: Options{Protocol: Paxos, PaxosF: 1}, n: 3, write: writeAll,
			want: map[SiteID]trace.FamilyCounters{
				1: {LogAppends: 5, LogForces: 2, MsgsSent: 4, MsgsRecv: 6},
				2: {LogAppends: 4, LogForces: 2, MsgsSent: 4, MsgsRecv: 3},
				3: {LogAppends: 4, LogForces: 2, MsgsSent: 4, MsgsRecv: 3},
			},
		},
		// Paxos Commit, F=1, read-only mix: the read-only site still
		// hosts an acceptor, so it keeps one force (the accepted batch)
		// and stays in the message flow, but writes no update or
		// prepared records — and the outcome reaches it fire-and-forget,
		// with no ack owed.
		{
			name: "paxos/F=1/readOnly", opts: Options{Protocol: Paxos, PaxosF: 1}, n: 3, ro: true,
			want: map[SiteID]trace.FamilyCounters{
				1: {LogAppends: 5, LogForces: 2, MsgsSent: 4, MsgsRecv: 5},
				2: {LogAppends: 4, LogForces: 2, MsgsSent: 4, MsgsRecv: 3},
				3: {LogAppends: 1, LogForces: 1, MsgsSent: 3, MsgsRecv: 3},
			},
		},
		// Paxos Commit, F=1 over two sites — the shape the benchmark's
		// dist-paxos workload runs. The sole subordinate is the last
		// voter: its prepared and accepted records share one force, and
		// its 2b is the only datagram its vote costs.
		{
			name: "paxos/F=1/twoSites", opts: Options{Protocol: Paxos, PaxosF: 1}, n: 2, write: writeAllN(2),
			want: map[SiteID]trace.FamilyCounters{
				1: {LogAppends: 5, LogForces: 2, MsgsSent: 2, MsgsRecv: 2},
				2: {LogAppends: 4, LogForces: 1, MsgsSent: 2, MsgsRecv: 2},
			},
		},
		// Paxos Commit, F=2 over five sites: all five host acceptors.
		{
			name: "paxos/F=2/writeAll", opts: Options{Protocol: Paxos, PaxosF: 2}, n: 5, write: writeAllN(5),
			want: map[SiteID]trace.FamilyCounters{
				1: {LogAppends: 5, LogForces: 2, MsgsSent: 8, MsgsRecv: 12},
				2: {LogAppends: 4, LogForces: 2, MsgsSent: 6, MsgsRecv: 5},
				3: {LogAppends: 4, LogForces: 2, MsgsSent: 6, MsgsRecv: 5},
				4: {LogAppends: 4, LogForces: 2, MsgsSent: 6, MsgsRecv: 5},
				5: {LogAppends: 4, LogForces: 2, MsgsSent: 6, MsgsRecv: 5},
			},
		},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			var (
				setup func(k *sim.Kernel, cl *Cluster)
				ops   = r.write
			)
			if r.ro {
				setup = func(k *sim.Kernel, cl *Cluster) { seed(t, cl.Node(3), srvName(3), "k", "v0") }
				ops = readOnlyOps
			}
			id, tr := commitTracedN(t, r.opts, r.n, setup, ops)
			for site := SiteID(1); site <= SiteID(r.n); site++ {
				wantBudget(t, tr, id, site, r.want[site])
			}
		})
	}
}

// TestPaxosTotalMessagesMatchGrayLamport checks the aggregate against
// the paper's formula. With A = min(2F+1, N) acceptors, all hosted by
// participants, the fault-free count for an all-update transaction is
// (N-1)(A+3) datagrams — Gray & Lamport's 2F(N+1)+3N+1 minus the
// messages that co-location and delayed acks turn into local
// transitions, the leader's A-1 remote 2a's among them — less one more
// when a subordinate votes last and its 2b stands in for its 2a to the
// leader, which in a symmetric fault-free run only a sole subordinate
// does. At F=0 this is 2PC's 4(N-1).
func TestPaxosTotalMessagesMatchGrayLamport(t *testing.T) {
	for _, tc := range []struct {
		f, n, folds int
	}{
		{0, 3, 0}, {1, 3, 0}, {2, 5, 0}, {1, 2, 1},
	} {
		t.Run(fmt.Sprintf("F=%d/N=%d", tc.f, tc.n), func(t *testing.T) {
			id, tr := commitTracedN(t, Options{Protocol: Paxos, PaxosF: tc.f}, tc.n, nil, writeAllN(tc.n))
			total := 0
			for site := SiteID(1); site <= SiteID(tc.n); site++ {
				total += tr.Family(id, site).MsgsSent
			}
			acceptors := min(2*tc.f+1, tc.n)
			want := (tc.n-1)*(acceptors+3) - tc.folds
			if total != want {
				t.Errorf("total datagrams = %d, want %d", total, want)
			}
		})
	}
}

// TestPaxosF0EqualsTwoPhaseDelayBudget is the degeneracy claim made
// exact: at F=0 every site's log-force and datagram counts under
// Paxos Commit equal its counts under optimized two-phase commit, for
// both the all-update and the read-only mix. (Append counts are
// allowed to differ at the coordinator — Paxos writes its batched
// accepted record where 2PC forces a commit record directly — but
// appends are not on the critical path.)
func TestPaxosF0EqualsTwoPhaseDelayBudget(t *testing.T) {
	for _, tc := range []struct {
		name string
		ro   bool
	}{
		{"writeAll", false},
		{"readOnly", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var (
				setup func(k *sim.Kernel, cl *Cluster)
				ops   = writeAll
			)
			if tc.ro {
				setup = func(k *sim.Kernel, cl *Cluster) { seed(t, cl.Node(3), srvName(3), "k", "v0") }
				ops = readOnlyOps
			}
			id2, tr2 := commitTracedN(t, Options{}, 3, setup, ops)
			idP, trP := commitTracedN(t, Options{Protocol: Paxos}, 3, setup, ops)
			for site := SiteID(1); site <= 3; site++ {
				b2, bP := tr2.Family(id2, site), trP.Family(idP, site)
				if bP.LogForces != b2.LogForces || bP.MsgsSent != b2.MsgsSent || bP.MsgsRecv != b2.MsgsRecv {
					t.Errorf("%v: paxos F=0 %+v, 2pc %+v; delay budgets must be equal", site, bP, b2)
				}
			}
		})
	}
}

// TestPaxosLastVoterForceLicensesIts2b pins the fold's event order at
// the sole subordinate of a two-site commit: one force, labelled for
// the prepared record, covers both the prepared and the accepted
// record, and it is on the timeline before the 2b it licenses — the
// only datagram the subordinate's vote sends.
func TestPaxosLastVoterForceLicensesIts2b(t *testing.T) {
	id, tr := commitTracedN(t, Options{Protocol: Paxos, PaxosF: 1}, 2, nil, writeAllN(2))
	var forces, votes []trace.Event
	for _, ev := range tr.Events() {
		if ev.Site != 2 || ev.TID != id {
			continue
		}
		switch {
		case ev.Kind == trace.EvLogForce:
			forces = append(forces, ev)
		case ev.Kind == trace.EvMsgSend && strings.HasPrefix(ev.Info, "PAXOS-"):
			votes = append(votes, ev)
		}
	}
	if len(forces) != 1 || forces[0].Info != "PAXOS-PREPARE" {
		t.Fatalf("subordinate forces = %v, want one PAXOS-PREPARE", forces)
	}
	if len(votes) != 1 || votes[0].Info != "PAXOS-2B" || votes[0].Peer != 1 {
		t.Fatalf("subordinate vote datagrams = %v, want one PAXOS-2B to site1", votes)
	}
	if forces[0].Seq > votes[0].Seq {
		t.Errorf("2b (#%d) left before the force that makes its vote durable (#%d)", votes[0].Seq, forces[0].Seq)
	}
}
