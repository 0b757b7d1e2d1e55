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
	"slices"
	"strings"
	"testing"
	"time"

	"camelot/internal/sim"
	"camelot/internal/tid"
	"camelot/internal/trace"
	"camelot/internal/transport"
	"camelot/internal/wire"
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

// budgetRow is one row of the protocol budget table.
type budgetRow struct {
	name  string
	opts  Options
	n     int                             // cluster size
	write func(tx *Tx) error              // workload
	ro    bool                            // readOnlyOps workload (site 3 reads only)
	want  map[SiteID]trace.FamilyCounters // per-site budget
}

// budgetTable is the three-protocol budget table: (protocol × F ×
// workload mix) → exact per-site appends, forces and datagrams. The
// Paxos rows derive from Gray & Lamport with the ballot-0, co-location
// and batched-accept optimizations applied; the 2PC and NB rows restate
// the §3.2/§3.3 budgets so the three columns are pinned side by side.
// TestProtocolBudgetTable runs every row on the simulator,
// TestRealBudgetTable some on real nodes.
var budgetTable = []budgetRow{
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
	// Only the coordinator's append count differs: it forces the
	// accepted record where 2PC forces COMMIT, and then appends COMMIT
	// lazily as a fourth, unforced record (paxosDecide → decideCommit,
	// whose forcedCommit is false for Paxos).
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

// budgetRowNamed returns the budget table's row called name.
func budgetRowNamed(name string) budgetRow {
	for _, r := range budgetTable {
		if r.name == name {
			return r
		}
	}
	panic("no budget row " + name)
}

// TestProtocolBudgetTable runs the budget table on the simulator.
func TestProtocolBudgetTable(t *testing.T) {
	for _, r := range budgetTable {
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

// f0Names is the one fixed table of names the F=0 differential maps
// two-phase commit's timeline through: each wire kind and record type
// 2PC spells differently, to its Paxos Commit spelling. The prepare
// request and the prepared record share a name under each protocol. A
// Yes or ReadOnly vote is the voter's ballot-0 2a to the sole acceptor,
// which at F=0 is the coordinator.
var f0Names = map[string]string{
	wire.KPrepare.String(): wire.KPaxosPrepare.String(),
	wire.KVote.String():    wire.KPaxos2a.String(),
}

// f0Timeline is site's timeline of family fam, one line per event:
// the primitive (log appends and forces by record type, datagrams sent,
// received and lost by kind and peer, timer-driven retry rounds) and
// the site's crashes and restarts, with names mapped through f0Names
// if mapped is set. Device writes are left out: how the log batches
// records into them is group commit's timing, not the protocol, and
// the force is the budget's unit. A timer round that repeats
// unanswered — the same events again, right behind the last — is kept
// once: how often a timer fires before an answer gets through is the
// timers' setting, not a protocol step.
func f0Timeline(tr *trace.Collector, site SiteID, fam tid.FamilyID, mapped bool) []string {
	var out []string
	for _, ev := range tr.Events() {
		if ev.Site != site {
			continue
		}
		switch ev.Kind {
		case trace.EvLogAppend, trace.EvLogForce, trace.EvMsgSend, trace.EvMsgRecv, trace.EvMsgDrop, trace.EvRetry:
			if ev.TID.Family != fam {
				continue
			}
		case trace.EvCrash, trace.EvRecover:
		default:
			continue
		}
		info := ev.Info
		if to, ok := f0Names[info]; ok && mapped {
			info = to
		}
		line := ev.Kind.String()
		if info != "" {
			line += " " + info
		}
		if ev.Peer != 0 {
			line += fmt.Sprintf(" %s", ev.Peer)
		}
		out = append(out, line)
	}
	return squeezeRepeats(out)
}

// squeezeRepeats drops every run of events that repeats the run right
// before it, for runs of up to eight events, until none is left.
func squeezeRepeats(s []string) []string {
	for again := true; again; {
		again = false
		for w := 1; w <= 8; w++ {
			for i := 0; i+2*w <= len(s); {
				if slices.Equal(s[i:i+w], s[i+w:i+2*w]) {
					s = slices.Delete(s, i+w, i+2*w)
					again = true
					continue
				}
				i++
			}
		}
	}
	return s
}

// timelineDiff is a shortest edit script from a to b: "-" lines only a
// has, "+" lines only b has, in timeline order.
func timelineDiff(a, b []string) []string {
	// lcs[i][j] is the longest common subsequence of a[i:] and b[j:].
	lcs := make([][]int, len(a)+1)
	for i := range lcs {
		lcs[i] = make([]int, len(b)+1)
	}
	for i := len(a) - 1; i >= 0; i-- {
		for j := len(b) - 1; j >= 0; j-- {
			if a[i] == b[j] {
				lcs[i][j] = lcs[i+1][j+1] + 1
			} else {
				lcs[i][j] = max(lcs[i+1][j], lcs[i][j+1])
			}
		}
	}
	var out []string
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case i < len(a) && j < len(b) && a[i] == b[j]:
			i, j = i+1, j+1
		case j < len(b) && (i == len(a) || lcs[i][j+1] >= lcs[i+1][j]):
			out = append(out, "+"+b[j])
			j++
		default:
			out = append(out, "-"+a[i])
			i++
		}
	}
	return out
}

// f0Differences is the named list: every way Paxos Commit at F=0
// behaves differently from two-phase commit on the shapes of
// TestPaxosF0EqualsTwoPhaseDelayBudget, as the edit lines it leaves in
// one site's mapped timeline ("-": 2PC only, "+": F=0 only), and the
// shape/site timelines it occurs in. DESIGN.md §10 gives each the line
// of code that causes it.
var f0Differences = []struct {
	name  string
	at    []string
	lines []string
}{
	{
		// The sole acceptor's batched accepted record is the coordinator's
		// commit point, forced where 2PC forces COMMIT; the COMMIT record
		// follows lazily (paxosDecide → decideCommit: forcedCommit is
		// false). Four appends against three.
		name: "accept is the commit point",
		at: []string{"writeAll/site1", "readOnly/site1", "twoSites/site1", "ForceSubCommit/site1",
			"ForceSubCommit+ImmediateAck/site1", "DisableReadOnlyOpt/site1", "coordinatorCrashAfterCommitPoint/site1"},
		lines: []string{"+LogAppend PAXOS-ACCEPT", "+LogForce PAXOS-ACCEPT", "-LogForce COMMIT"},
	},
	{
		// The coordinator's vote retries also re-ask site 2, whose Yes its
		// acceptor holds but has not merged; site 2's takeover gets its
		// promise (a forced PAXOS-PROMISE) and its acceptance of Aborted for
		// site 3, and site 2's ABORT ends the family — where 2PC ignores
		// site 2's inquiries, retries site 3 alone and aborts after
		// voteRetries.
		name: "takeover, not inquiry: the coordinator as sole acceptor",
		at:   []string{"subordinateNeverVotes/site1"},
		lines: []string{
			"+MsgSend PAXOS-PREPARE site2",
			"+MsgRecv PAXOS-2A site2",
			"+MsgRecv PAXOS-1A site2",
			"+LogAppend PAXOS-PROMISE",
			"+LogForce PAXOS-PROMISE",
			"+MsgSend PAXOS-1B site2",
			"+MsgRecv PAXOS-2A site2",
			"+LogAppend PAXOS-ACCEPT",
			"+Retry prepare",
			"+MsgSend PAXOS-PREPARE site2",
			"+MsgSend PAXOS-PREPARE site3",
			"+LogForce PAXOS-ACCEPT",
			"+MsgSend PAXOS-2B site2",
			"+MsgDrop PAXOS-PREPARE site3",
			"+MsgRecv PAXOS-2A site2",
			"+MsgRecv ABORT site2",
			"-MsgRecv INQUIRE site2",
			"-MsgSend ABORT site2",
			"-MsgSend ABORT site3",
			"-MsgDrop ABORT site3",
		},
	},
	{
		// The prepared subordinate re-casts its vote twice, then takes over:
		// phase 1 and 2 with the sole acceptor, deciding Aborted for the
		// instance nobody voted in, and it tells the others. Under 2PC it
		// inquires until the coordinator's abort arrives.
		name: "takeover, not inquiry: the prepared subordinate",
		at:   []string{"subordinateNeverVotes/site2"},
		lines: []string{
			"+MsgRecv PAXOS-PREPARE site1",
			"+MsgSend PAXOS-2A site1",
			"+Retry recast",
			"+MsgSend PAXOS-2A site1",
			"+MsgSend PAXOS-1A site1",
			"+MsgRecv PAXOS-1B site1",
			"+MsgSend PAXOS-2A site1",
			"+MsgRecv PAXOS-PREPARE site1",
			"+MsgSend PAXOS-2A site1",
			"+MsgRecv PAXOS-2B site1",
			"-Retry inquire",
			"-MsgSend INQUIRE site1",
			"-MsgRecv ABORT site1",
			"+MsgSend ABORT site1",
			"+MsgSend ABORT site3",
			"+MsgDrop ABORT site3",
		},
	},
	{
		// After voteRetries rounds without the vote, 2PC aborts; the F=0
		// coordinator promotes itself, promising and accepting Aborted for
		// the silent instance at its own acceptor, and then aborts alike.
		name: "promotion, not abort, after the vote retries",
		at:   []string{"soleSubordinateNeverVotes/site1"},
		lines: []string{
			"+LogAppend PAXOS-PROMISE",
			"+LogForce PAXOS-PROMISE",
			"+LogAppend PAXOS-ACCEPT",
			"+LogForce PAXOS-ACCEPT",
		},
	},
	{
		// 2PC's coordinator restarts from its forced COMMIT and resumes the
		// notify phase. The F=0 coordinator crashed between its forced accept
		// and the lazy COMMIT, so it restarts as an in-doubt acceptor: it
		// inquires of itself, answers a survivor's takeover with a forced
		// promise and a forced accept, and hears COMMIT from that survivor.
		name: "restart as an in-doubt acceptor, not as the notifier",
		at:   []string{"coordinatorCrashAfterCommitPoint/site1"},
		lines: []string{
			"+Retry inquire",
			"+MsgSend INQUIRE site1",
			"+MsgRecv INQUIRE site1",
			"+MsgRecv PAXOS-1A site2",
			"+LogAppend PAXOS-PROMISE",
			"+LogForce PAXOS-PROMISE",
			"+MsgSend PAXOS-1B site2",
			"+MsgRecv PAXOS-2A site2",
			"+LogAppend PAXOS-ACCEPT",
			"+LogForce PAXOS-ACCEPT",
			"+MsgSend PAXOS-2B site2",
			"+MsgRecv COMMIT site2",
			"+LogAppend COMMIT",
			"+MsgSend COMMIT-ACK site2",
			"+MsgRecv COMMIT site2",
			"+MsgSend COMMIT-ACK site2",
			"-Retry outcome",
			"-MsgSend COMMIT site2",
			"-MsgSend COMMIT site3",
			"-MsgRecv INQUIRE site3",
			"-MsgSend COMMIT site3",
			"-MsgRecv COMMIT-ACK site3",
			"-Retry outcome",
			"-MsgSend COMMIT site2",
			"-MsgRecv COMMIT-ACK site2",
			"-LogAppend END",
			"-MsgRecv COMMIT-ACK site2",
			"-MsgRecv COMMIT-ACK site3",
		},
	},
	{
		// With the coordinator down, site 2 re-casts, takes over once the
		// acceptor is back, decides commit from its accepted state, and
		// runs the notify phase itself; under 2PC it inquires and hears
		// COMMIT from the restarted coordinator.
		name: "a survivor's takeover finishes the commit and notifies",
		at:   []string{"coordinatorCrashAfterCommitPoint/site2"},
		lines: []string{
			"+Retry recast",
			"+MsgSend PAXOS-2A site1",
			"+MsgDrop PAXOS-2A site1",
			"+MsgSend PAXOS-1A site1",
			"+MsgDrop PAXOS-1A site1",
			"+Retry paxos1a",
			"+MsgSend PAXOS-1A site1",
			"+MsgRecv PAXOS-1B site1",
			"+MsgSend PAXOS-2A site1",
			"+MsgRecv PAXOS-2B site1",
			"-Retry inquire",
			"-MsgSend INQUIRE site1",
			"-MsgDrop INQUIRE site1",
			"-MsgRecv COMMIT site1",
			"+MsgSend COMMIT site1",
			"+MsgSend COMMIT site3",
			"+Retry outcome",
			"+MsgSend COMMIT site1",
			"+MsgSend COMMIT site3",
			"+MsgRecv COMMIT-ACK site1",
			"+MsgRecv COMMIT-ACK site3",
			"+LogAppend END",
			"+MsgRecv COMMIT-ACK site1",
			"+MsgRecv COMMIT-ACK site3",
			"-MsgRecv COMMIT site1",
			"-MsgSend COMMIT-ACK site1",
		},
	},
	{
		// Site 3 takes over too, and hears COMMIT from site 2's takeover
		// first — twice, the notify phase's retry included.
		name: "the other survivor hears the outcome from the taker-over",
		at:   []string{"coordinatorCrashAfterCommitPoint/site3"},
		lines: []string{
			"+Retry recast",
			"+MsgSend PAXOS-2A site1",
			"+MsgDrop PAXOS-2A site1",
			"+MsgSend PAXOS-1A site1",
			"+MsgDrop PAXOS-1A site1",
			"+Retry paxos1a",
			"+MsgSend PAXOS-1A site1",
			"+MsgDrop PAXOS-1A site1",
			"+MsgRecv COMMIT site2",
			"-Retry inquire",
			"-MsgSend INQUIRE site1",
			"-MsgDrop INQUIRE site1",
			"-Retry inquire",
			"-MsgSend INQUIRE site1",
			"-MsgRecv COMMIT site1",
			"+MsgSend COMMIT-ACK site2",
			"+MsgRecv COMMIT site2",
			"+MsgSend COMMIT-ACK site2",
			"-MsgRecv COMMIT site1",
			"-MsgSend COMMIT-ACK site1",
		},
	},
	{
		// Each survivor re-casts, then sends phase 1a to the sole acceptor,
		// which is the dead coordinator: no quorum, so no decision, and it
		// holds its locks — blocked, as 2PC's inquiring subordinate is.
		name: "takeover against a dead sole acceptor: blocked, as 2pc is",
		at:   []string{"coordinatorCrashBeforeCommitPoint/site2", "coordinatorCrashBeforeCommitPoint/site3"},
		lines: []string{
			"+Retry recast",
			"+MsgSend PAXOS-2A site1",
			"+MsgDrop PAXOS-2A site1",
			"+MsgSend PAXOS-1A site1",
			"+MsgDrop PAXOS-1A site1",
			"+Retry paxos1a",
			"+MsgSend PAXOS-1A site1",
			"-Retry inquire",
			"-MsgSend INQUIRE site1",
			"-MsgDrop INQUIRE site1",
			"-Retry inquire",
			"-MsgSend INQUIRE site1",
		},
	},
	{
		// The restarted coordinator, with no record of the family, answers
		// a phase 1a with ABORT where 2PC answers an inquiry with ABORT: the
		// same presumed abort.
		name: "the restarted coordinator hears phase 1a, not an inquiry",
		at:   []string{"coordinatorCrashBeforeCommitPoint/site1"},
		lines: []string{
			"+MsgRecv PAXOS-1A site2",
			"-MsgRecv INQUIRE site2",
			"+MsgRecv PAXOS-1A site3",
			"-MsgRecv INQUIRE site3",
		},
	},
}

// f0Shape is one shape the differential runs under both protocols.
type f0Shape struct {
	name  string
	n     int
	opts  Options // the protocol is set per run
	write func(tx *Tx) error
	ro    bool // readOnlyOps workload (site 3 reads only)
	// fault, if set, runs on the test thread right after the commit is
	// started on a thread of its own, drives its fault to the end
	// (recovery included), and reports anything it finds wrong; the
	// cluster then runs on fast timers.
	fault func(t *testing.T, p Protocol, k *sim.Kernel, c *Cluster)
}

// f0Run commits the shape's transaction under protocol p and returns
// its family, the collector, and each site's outcome once the cluster
// has settled.
func f0Run(t *testing.T, sh f0Shape, p Protocol) (tid.FamilyID, *trace.Collector, []Outcome) {
	t.Helper()
	cfg := traceConfig()
	if sh.fault != nil {
		cfg = fastConfig()
		cfg.Trace = true
	}
	var (
		fam tid.FamilyID
		c   *Cluster
		out []Outcome
	)
	runSimN(t, cfg, sh.n, func(k *sim.Kernel, cl *Cluster) {
		c = cl
		ops := sh.write
		if sh.ro {
			seed(t, cl.Node(3), srvName(3), "k", "v0")
			ops = readOnlyOps
		}
		tx, err := cl.Node(1).Begin()
		if err != nil {
			t.Errorf("Begin: %v", err)
			return
		}
		fam = tx.ID().Family
		if err := ops(tx); err != nil {
			t.Errorf("operations: %v", err)
			return
		}
		opts := sh.opts
		opts.Protocol = p
		if sh.fault == nil {
			if err := tx.CommitWith(opts); err != nil {
				t.Errorf("Commit: %v", err)
			}
		} else {
			k.Go("commit", func() { tx.CommitWith(opts) }) //nolint:errcheck // the outcomes are read at every site below
			sh.fault(t, p, k, cl)
		}
		k.Sleep(5 * time.Second)
		for id := SiteID(1); id <= SiteID(sh.n); id++ {
			out = append(out, cl.Node(id).TM().OutcomeOf(fam))
		}
	})
	return fam, c.Trace(), out
}

// crashCoordinatorOnSend crashes site 1, the coordinator, when from
// sends its first datagram of kind — of its mapped kind under Paxos —
// and that datagram is lost.
func crashCoordinatorOnSend(p Protocol, k *sim.Kernel, c *Cluster, from SiteID, kind wire.Kind) {
	name := kind.String()
	if to, ok := f0Names[name]; ok && p == Paxos {
		name = to
	}
	fired := false
	c.Network().SetShaper(func(f, _ tid.SiteID, payload any, _ bool) transport.Shape {
		if fired || f != from || kindOf(payload).String() != name {
			return transport.Shape{}
		}
		fired = true
		k.After(0, func() { c.Node(1).Crash() })
		return transport.Shape{Drop: true}
	})
}

// TestPaxosF0EqualsTwoPhaseDelayBudget is Gray & Lamport's degeneracy
// claim — two-phase commit is Paxos Commit at F=0 — checked event for
// event. Each shape commits one transaction under both protocols: the
// budget table's two 2PC rows, the same update at two sites (the shape
// dist-2pc runs), the Figure 2 variants, and four faults — a
// subordinate that never votes beside one that did, a sole subordinate
// that never votes, and the coordinator crashing after and before its
// commit point. Each site's timeline under 2PC, mapped through
// f0Names, is diffed against its timeline under F=0, and what is left
// must be exactly the shape's named differences: one not on the list
// fails, and so does a listed one that no longer occurs. Every site
// must also end with the same outcome under both protocols.
func TestPaxosF0EqualsTwoPhaseDelayBudget(t *testing.T) {
	writeAllRow, readOnlyRow := budgetRowNamed("2pc/writeAll"), budgetRowNamed("2pc/readOnly")
	shapes := []f0Shape{
		{name: "writeAll", n: writeAllRow.n, write: writeAllRow.write},
		{name: "readOnly", n: readOnlyRow.n, ro: readOnlyRow.ro},
		{name: "twoSites", n: 2, write: writeAllN(2)},
		{name: "ForceSubCommit", n: 3, opts: Options{ForceSubCommit: true}, write: writeAll},
		{name: "ForceSubCommit+ImmediateAck", n: 3, opts: Options{ForceSubCommit: true, ImmediateAck: true}, write: writeAll},
		{name: "DisableReadOnlyOpt", n: 3, opts: Options{DisableReadOnlyOpt: true}, ro: true},
		{
			// Site 3 is down before the prepare goes out and stays down past
			// every vote retry; site 2 prepares and then hears nothing.
			name: "subordinateNeverVotes", n: 3, write: writeAll,
			fault: func(t *testing.T, p Protocol, k *sim.Kernel, c *Cluster) {
				c.Node(3).Crash()
				k.Sleep(30 * time.Second)
				if err := c.Node(3).Recover(); err != nil {
					t.Errorf("%v: recover: %v", p, err)
				}
			},
		},
		{
			// The same with no other subordinate to take over.
			name: "soleSubordinateNeverVotes", n: 2, write: writeAllN(2),
			fault: func(t *testing.T, p Protocol, k *sim.Kernel, c *Cluster) {
				c.Node(2).Crash()
				k.Sleep(30 * time.Second)
				if err := c.Node(2).Recover(); err != nil {
					t.Errorf("%v: recover: %v", p, err)
				}
			},
		},
		{
			// The coordinator dies sending its first outcome, past its
			// commit point.
			name: "coordinatorCrashAfterCommitPoint", n: 3, write: writeAll,
			fault: func(t *testing.T, p Protocol, k *sim.Kernel, c *Cluster) {
				crashCoordinatorOnSend(p, k, c, 1, wire.KCommit)
				k.Sleep(2 * time.Second)
				c.Network().SetShaper(nil)
				if err := c.Node(1).Recover(); err != nil {
					t.Errorf("%v: recover: %v", p, err)
				}
			},
		},
		{
			// The coordinator dies as the last vote is sent, before its
			// commit point; both subordinates are prepared.
			name: "coordinatorCrashBeforeCommitPoint", n: 3, write: writeAll,
			fault: func(t *testing.T, p Protocol, k *sim.Kernel, c *Cluster) {
				crashCoordinatorOnSend(p, k, c, 3, wire.KVote)
				k.Sleep(2 * time.Second)
				for _, id := range []SiteID{2, 3} {
					if !subHoldsLock(c, id, "k") {
						t.Errorf("%v: %v resolved with the coordinator down; want blocked, as 2pc is", p, id)
					}
				}
				c.Network().SetShaper(nil)
				if err := c.Node(1).Recover(); err != nil {
					t.Errorf("%v: recover: %v", p, err)
				}
			},
		},
	}
	seen := map[string]bool{} // shape/site timelines diffed
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			id2, tr2, out2 := f0Run(t, sh, TwoPhase)
			idP, trP, outP := f0Run(t, sh, Paxos)
			if !slices.Equal(out2, outP) {
				t.Errorf("outcomes by site: 2pc %v, paxos F=0 %v", out2, outP)
			}
			for site := SiteID(1); site <= SiteID(sh.n); site++ {
				at := sh.name + "/" + site.String()
				seen[at] = true
				diff := timelineDiff(f0Timeline(tr2, site, id2, true), f0Timeline(trP, site, idP, false))
				left := diff
				for _, d := range f0Differences {
					if !slices.Contains(d.at, at) {
						continue
					}
					var found bool
					if left, found = removeInOrder(left, d.lines); !found {
						t.Errorf("%v: named difference %q no longer occurs", site, d.name)
					}
				}
				if len(left) > 0 {
					t.Errorf("%v: unnamed difference from 2pc:\n\t%s\nwhole diff:\n\t%s", site,
						strings.Join(left, "\n\t"), strings.Join(diff, "\n\t"))
				}
			}
		})
	}
	for _, d := range f0Differences {
		for _, at := range d.at {
			if !seen[at] {
				t.Errorf("named difference %q is listed at %s, which no shape runs", d.name, at)
			}
		}
	}
}

// removeInOrder removes want from diff as a subsequence, each line at
// its first match after the last, and reports whether all of it was
// there.
func removeInOrder(diff, want []string) ([]string, bool) {
	out := slices.Clone(diff)
	at := 0
	for _, w := range want {
		i := slices.Index(out[at:], w)
		if i < 0 {
			return diff, false
		}
		out = slices.Delete(out, at+i, at+i+1)
		at += i
	}
	return out, true
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
