package camelot

// Conformance tests pinning Paxos Commit's fault-free budgets, beside
// the 2PC and NB budgets of conformance_test.go. Gray & Lamport's
// analysis gives the protocol 2F(N+1)+3N+1 messages in the fault-free
// case and — with the coordinator co-located with one acceptor and
// acceptors batching all N instances into one accepted record — the
// same log-force and message-delay budget as two-phase commit when
// F=0. These tests assert the per-site counts exactly, so any stray
// datagram or force anywhere in the Paxos stack fails a test rather
// than quietly shifting a latency curve.

import (
	"fmt"
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
		// acceptor's batched accepted record) and the 2a/2b fan-out
		// replaces the single vote datagram.
		{
			name: "paxos/F=1/writeAll", opts: Options{Protocol: Paxos, PaxosF: 1}, n: 3, write: writeAll,
			want: map[SiteID]trace.FamilyCounters{
				1: {LogAppends: 5, LogForces: 2, MsgsSent: 6, MsgsRecv: 6},
				2: {LogAppends: 4, LogForces: 2, MsgsSent: 4, MsgsRecv: 4},
				3: {LogAppends: 4, LogForces: 2, MsgsSent: 4, MsgsRecv: 4},
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
				1: {LogAppends: 5, LogForces: 2, MsgsSent: 6, MsgsRecv: 5},
				2: {LogAppends: 4, LogForces: 2, MsgsSent: 4, MsgsRecv: 4},
				3: {LogAppends: 1, LogForces: 1, MsgsSent: 3, MsgsRecv: 4},
			},
		},
		// Paxos Commit, F=2 over five sites: all five host acceptors.
		{
			name: "paxos/F=2/writeAll", opts: Options{Protocol: Paxos, PaxosF: 2}, n: 5, write: writeAllN(5),
			want: map[SiteID]trace.FamilyCounters{
				1: {LogAppends: 5, LogForces: 2, MsgsSent: 12, MsgsRecv: 12},
				2: {LogAppends: 4, LogForces: 2, MsgsSent: 6, MsgsRecv: 6},
				3: {LogAppends: 4, LogForces: 2, MsgsSent: 6, MsgsRecv: 6},
				4: {LogAppends: 4, LogForces: 2, MsgsSent: 6, MsgsRecv: 6},
				5: {LogAppends: 4, LogForces: 2, MsgsSent: 6, MsgsRecv: 6},
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
// the paper's formula. With the co-location optimization the
// fault-free count is (N-1)(2F+4) + 2F datagrams for an all-update
// transaction — Gray & Lamport's 2F(N+1)+3N+1 minus the messages that
// co-location and delayed acks turn into local transitions — which
// degenerates to 2PC's 4(N-1) at F=0.
func TestPaxosTotalMessagesMatchGrayLamport(t *testing.T) {
	for _, tc := range []struct {
		f, n int
	}{
		{0, 3}, {1, 3}, {2, 5},
	} {
		t.Run(fmt.Sprintf("F=%d/N=%d", tc.f, tc.n), func(t *testing.T) {
			id, tr := commitTracedN(t, Options{Protocol: Paxos, PaxosF: tc.f}, tc.n, nil, writeAllN(tc.n))
			total := 0
			for site := SiteID(1); site <= SiteID(tc.n); site++ {
				total += tr.Family(id, site).MsgsSent
			}
			want := (tc.n-1)*(2*tc.f+4) + 2*tc.f
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
