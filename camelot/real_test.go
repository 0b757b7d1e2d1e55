package camelot

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"camelot/internal/core"
	"camelot/internal/shardmap"
	"camelot/internal/trace"
	"camelot/internal/wal"
	"camelot/internal/wire"
)

// startReal boots one RealNode on a fresh or existing WAL under m and
// returns it un-recovered, so tests can observe Recover's verdict.
func startReal(t *testing.T, walPath string, m *shardmap.Map) *RealNode {
	t.Helper()
	cfg := DefaultRealConfig(1)
	cfg.WALPath = walPath
	cfg.ShardMap = m
	n, err := StartRealNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestStartRealNodeRequiresShardMap pins that the unsharded node is
// unrepresentable: there is no data tier to fall back to, so a nil map
// is a start-up error naming the field, not a node that fails later.
func TestStartRealNodeRequiresShardMap(t *testing.T) {
	cfg := DefaultRealConfig(1)
	cfg.WALPath = filepath.Join(t.TempDir(), "wal")
	cfg.ShardMap = nil
	n, err := StartRealNode(cfg)
	if err == nil {
		n.Close() //nolint:errcheck // test teardown
		t.Fatal("StartRealNode with a nil ShardMap succeeded")
	}
	if !strings.Contains(err.Error(), "ShardMap") {
		t.Fatalf("error %q does not name the missing ShardMap", err)
	}
}

// TestClosedRealNodeFailsAtOnce pins that a call into a closed node's
// transaction manager fails with core.ErrClosed at once, instead of
// waiting out the timeout of a request no thread will take.
func TestClosedRealNodeFailsAtOnce(t *testing.T) {
	cfg := DefaultRealConfig(1)
	cfg.WALPath = filepath.Join(t.TempDir(), "wal")
	n, err := StartRealNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Recover(); err != nil {
		t.Fatal(err)
	}
	tx, err := n.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	calls := []struct {
		name string
		call func() error
	}{
		{"Begin", func() error { _, err := n.Begin(); return err }},
		{"WriteKey", func() error { return n.WriteKey(tx, "k", []byte("v")) }},
		{"Commit", func() error { _, err := n.Commit(tx, Options{}); return err }},
		{"Abort", func() error { return n.Abort(tx) }},
	}
	for _, c := range calls {
		done := make(chan error, 1)
		go func() { done <- c.call() }()
		select {
		case err := <-done:
			if !errors.Is(err, core.ErrClosed) {
				t.Errorf("%s after Close = %v, want core.ErrClosed", c.name, err)
			}
		case <-time.After(time.Second):
			t.Errorf("%s after Close still blocked after 1s", c.name)
		}
	}
}

// TestDefaultRealConfigServesKeyspace checks that a lone node booted
// from DefaultRealConfig alone — no map installed by the caller —
// serves the routed data path and the oracle's probe.
func TestDefaultRealConfigServesKeyspace(t *testing.T) {
	cfg := DefaultRealConfig(1)
	cfg.WALPath = filepath.Join(t.TempDir(), "wal")
	n, err := StartRealNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close() //nolint:errcheck // test teardown
	if err := n.Recover(); err != nil {
		t.Fatal(err)
	}
	tx, err := n.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := n.WriteKey(tx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Commit(tx, Options{}); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := n.PeekKey("k"); err != nil || !ok || !bytes.Equal(v, []byte("v")) {
		t.Fatalf("PeekKey = %q, %v, %v", v, ok, err)
	}
	if err := n.Probe(); err != nil {
		t.Fatalf("Probe: %v", err)
	}
}

// TestRestartKeepsCommittedValues is the regression test for two
// ways a committed value used to change across a restart, while
// PeekKey showed it right before. An empty value: the log encoded it
// like an absent one, so recovery redid the commit as a delete and the
// key vanished. A writer reusing its buffer between WriteKey and the
// commit: the log held that buffer until the commit's force, so it
// made the reused bytes durable instead of the written ones.
func TestRestartKeepsCommittedValues(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "wal")
	m := shardmap.Default(1)
	n := startReal(t, walPath, m)
	if err := n.Recover(); err != nil {
		t.Fatal(err)
	}
	tx, err := n.Begin()
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte("abc")
	if err := n.WriteKey(tx, "empty", []byte{}); err != nil {
		t.Fatal(err)
	}
	if err := n.WriteKey(tx, "reused", buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "xyz")
	if _, err := n.Commit(tx, Options{}); err != nil {
		t.Fatal(err)
	}
	check := func(when string, n *RealNode) {
		t.Helper()
		if v, ok, err := n.PeekKey("empty"); err != nil || !ok || len(v) != 0 {
			t.Errorf("%s: empty = %q, %v, %v; want present and empty", when, v, ok, err)
		}
		if v, ok, err := n.PeekKey("reused"); err != nil || !ok || string(v) != "abc" {
			t.Errorf("%s: reused = %q, %v, %v; want \"abc\"", when, v, ok, err)
		}
	}
	check("before the restart", n)
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	re := startReal(t, walPath, m)
	defer re.Close() //nolint:errcheck // test teardown
	if err := re.Recover(); err != nil {
		t.Fatal(err)
	}
	check("after the restart", re)
}

// TestRecoverRejectsUnhostedServer is the regression test for a node
// restarted under a different shard map: its log names shard servers
// the new layout does not host, and recovery used to skip them — the
// site came up READY with committed data missing. It must refuse and
// say which server.
func TestRecoverRejectsUnhostedServer(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "wal")
	four, err := shardmap.New(1, 4, []SiteID{1})
	if err != nil {
		t.Fatal(err)
	}
	n := startReal(t, walPath, four)
	if err := n.Recover(); err != nil {
		t.Fatal(err)
	}
	tx, err := n.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := n.WriteKey(tx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Commit(tx, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	re := startReal(t, walPath, shardmap.Default(1))
	err = re.Recover()
	re.Close() //nolint:errcheck // only Recover's verdict matters
	if err == nil {
		t.Fatal("Recover under a different shard map succeeded; the committed key is silently gone")
	}
	if want := four.ServerFor("k"); !strings.Contains(err.Error(), want) {
		t.Fatalf("Recover error %q does not name the unhosted server %q", err, want)
	}

	// The same log under the map it was written with still recovers.
	same := startReal(t, walPath, four)
	defer same.Close() //nolint:errcheck // test teardown
	if err := same.Recover(); err != nil {
		t.Fatalf("Recover under the original map: %v", err)
	}
	if v, ok, err := same.PeekKey("k"); err != nil || !ok || !bytes.Equal(v, []byte("v")) {
		t.Fatalf("PeekKey after recovery = %q, %v, %v", v, ok, err)
	}
}

// realCluster boots sites 1..n as connected RealNodes at
// DefaultRealConfig under a one-shard-per-site map; tweak, if non-nil,
// adjusts each site's configuration first.
func realCluster(t *testing.T, n int, tweak func(*RealConfig)) ([]*RealNode, *shardmap.Map) {
	t.Helper()
	var sites []SiteID
	for id := SiteID(1); id <= SiteID(n); id++ {
		sites = append(sites, id)
	}
	m, err := shardmap.New(1, n, sites)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var nodes []*RealNode
	for _, id := range sites {
		cfg := DefaultRealConfig(id)
		cfg.WALPath = filepath.Join(dir, fmt.Sprintf("site%d.wal", id))
		cfg.ShardMap = m
		if tweak != nil {
			tweak(&cfg)
		}
		node, err := StartRealNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() }) //nolint:errcheck // test teardown
		if err := node.Recover(); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
	}
	for _, a := range nodes {
		for _, b := range nodes {
			if a != b {
				if err := a.AddPeer(b.ID(), b.Addr()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return nodes, m
}

// writeAtEach begins a transaction at nodes[0] and writes one key,
// unique to label, at each of nodes.
func writeAtEach(t *testing.T, m *shardmap.Map, nodes []*RealNode, label string) TID {
	t.Helper()
	tx, err := nodes[0].Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		key, err := m.KeyAt(label, n.ID())
		if err != nil {
			t.Fatal(err)
		}
		if err := n.WriteKey(tx, key, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	return tx
}

// ackTraffic sums over nodes the counters the ack tests read; the
// other fields stay zero.
func ackTraffic(nodes []*RealNode) (sum core.Stats) {
	for _, n := range nodes {
		s := n.TM().Stats()
		sum.Retransmits += s.Retransmits
		sum.AcksStandalone += s.AcksStandalone
		sum.AcksPiggybacked += s.AcksPiggybacked
	}
	return sum
}

// oneCleanRound runs round up to three times and fails unless one of
// them returns no complaint. A retry timer also fires, and an ack also
// misses its ride, when the host stalls the process for the timer's
// whole period, which a loaded test machine does now and then; a timer
// shorter than the configuration implies fails every round.
func oneCleanRound(t *testing.T, what string, round func(attempt int) string) {
	t.Helper()
	var seen []string
	for attempt := 0; attempt < 3; attempt++ {
		complaint := round(attempt)
		if complaint == "" {
			return
		}
		seen = append(seen, complaint)
	}
	t.Errorf("%s: no clean round in three: %v", what, seen)
}

// ackWait is how long a DefaultRealConfig coordinator waits for acks
// before it first re-sends an outcome (StartRealNode): an idle gap this
// long lets a retry timer that is going to fire, fire.
func ackWait() time.Duration {
	cfg := DefaultRealConfig(1)
	return 2*realFlushInterval + 2*cfg.RetryInterval
}

// TestFaultFreeRunNeverRetransmits pins the ack-wait timer to the
// node's own configuration: with nothing lost, no retry round may
// fire. Every twentieth transaction is followed by an idle gap, so a
// subordinate's commit record has only the log flusher to make it
// durable and its ack nothing to ride on — the slowest answer a healthy
// subordinate gives. The last round aborts under the non-blocking
// protocol, whose aborts are acknowledged too (change 4): site 3 is
// named as a participant but never written, so it votes No while site 2
// votes Yes, hears the abort and owes the ack.
func TestFaultFreeRunNeverRetransmits(t *testing.T) {
	nodes, m := realCluster(t, 3, nil)
	pair := nodes[:2]
	txns := 300
	if testing.Short() {
		txns = 60
	}
	// run pushes n transactions through commit and reports how many
	// datagrams the sites re-sent meanwhile, with the round's wall time
	// and its slowest commit: a host that stalled the process shows in
	// them, and a timer that fires too early does not.
	run := func(label string, n int, commit func(tx TID, i int)) string {
		before := ackTraffic(nodes).Retransmits
		start := time.Now()
		var slowest time.Duration
		for i := 0; i < n; i++ {
			tx := writeAtEach(t, m, pair, fmt.Sprintf("%s.%d", label, i))
			began := time.Now()
			commit(tx, i)
			slowest = max(slowest, time.Since(began))
			if i%20 == 19 {
				time.Sleep(ackWait())
			}
		}
		time.Sleep(ackWait())
		r := ackTraffic(nodes).Retransmits - before
		took := fmt.Sprintf("%d transactions in %v, the slowest commit %v, against a %v ack wait",
			n, time.Since(start).Round(time.Millisecond), slowest.Round(time.Microsecond), ackWait())
		t.Logf("%s: %d retransmitted; %s", label, r, took)
		if r != 0 {
			return fmt.Sprintf("%d datagrams retransmitted (%s)", r, took)
		}
		return ""
	}
	for _, proto := range wire.Protocols() {
		oneCleanRound(t, proto.String(), func(attempt int) string {
			return run(fmt.Sprintf("%s.%d", proto, attempt), txns, func(tx TID, i int) {
				nodes[0].AddSites(tx, []SiteID{2})
				if _, err := nodes[0].Commit(tx, Options{Protocol: proto, PaxosF: 1}); err != nil {
					t.Fatalf("%s commit %d: %v", proto, i, err)
				}
			})
		})
	}
	oneCleanRound(t, "nb abort", func(attempt int) string {
		return run(fmt.Sprintf("abort.%d", attempt), txns/3, func(tx TID, i int) {
			nodes[0].AddSites(tx, []SiteID{2, 3})
			if _, err := nodes[0].Commit(tx, Options{Protocol: NonBlocking}); !errors.Is(err, ErrAborted) {
				t.Fatalf("nb commit %d with a site that never joined = %v, want ErrAborted", i, err)
			}
		})
	})
}

// TestBackToBackCommitsPiggybackTheirAcks: under steady traffic the
// commit-ack is not traffic. Back-to-back two-site commits always have
// a next datagram going the ack's way — the next transaction's vote —
// so under every protocol at most the last few acks of a run travel
// alone, and holding them that long makes no coordinator re-send.
func TestBackToBackCommitsPiggybackTheirAcks(t *testing.T) {
	nodes, m := realCluster(t, 2, nil)
	const txns = 300
	for _, proto := range wire.Protocols() {
		oneCleanRound(t, proto.String(), func(attempt int) string {
			before := ackTraffic(nodes)
			for i := 0; i < txns; i++ {
				tx := writeAtEach(t, m, nodes, fmt.Sprintf("%s.%d.%d", proto, attempt, i))
				nodes[0].AddSites(tx, []SiteID{2})
				if _, err := nodes[0].Commit(tx, Options{Protocol: proto, PaxosF: 1}); err != nil {
					t.Fatalf("%s commit %d: %v", proto, i, err)
				}
			}
			time.Sleep(ackWait())
			after := ackTraffic(nodes)
			alone, rode := after.AcksStandalone-before.AcksStandalone, after.AcksPiggybacked-before.AcksPiggybacked
			resent := after.Retransmits - before.Retransmits
			if alone+rode != txns || alone*50 > txns || resent != 0 {
				return fmt.Sprintf("%d acks alone, %d piggybacked, %d datagrams retransmitted in %d commits; want at most 2%% alone and none re-sent",
					alone, rode, resent, txns)
			}
			return ""
		})
	}
}

// TestRealBudgetTable runs fault-free update rows of the budget table
// on a three-site loopback cluster of real nodes: one transaction per
// row, over the row's first n sites, and after the ack hold every
// site's counter deltas — appends, forces, datagrams sent and
// received — must equal the row the simulator pins (a site the row
// leaves out, none). Device writes are left out: group-commit timing
// decides them.
//
// A row is the schedule the simulator's symmetric timing plays, so the
// rows run here are the ones real timing cannot reorder. The sites log
// to memory, as the simulator's do: with an fsync per force, the
// non-blocking coordinator's outcome, sent on the first replication
// ack, often overtakes the other subordinate mid-force, which then
// rightly skips its moot ack. The three-site Paxos row is left out:
// whichever subordinate hears the other's 2a before it votes takes the
// last-voter fold, one force and one datagram fewer, and on real nodes
// one usually does. The two-site row's sole subordinate always votes
// last.
func TestRealBudgetTable(t *testing.T) {
	nodes, m := realCluster(t, 3, func(cfg *RealConfig) {
		cfg.WrapStore = func(wal.Store) wal.Store { return wal.NewMemStore() }
	})
	for _, name := range []string{"2pc/writeAll", "nb/writeAll", "paxos/F=1/twoSites"} {
		row := budgetRowNamed(name)
		t.Run(name, func(t *testing.T) {
			oneCleanRound(t, name, func(attempt int) string {
				before := make([]trace.SiteCounters, len(nodes))
				for i, n := range nodes {
					before[i] = n.Counters()
				}
				tx := writeAtEach(t, m, nodes[:row.n], fmt.Sprintf("%s.%d", name, attempt))
				var subs []SiteID
				for _, n := range nodes[1:row.n] {
					subs = append(subs, n.ID())
				}
				nodes[0].AddSites(tx, subs)
				if _, err := nodes[0].Commit(tx, row.opts); err != nil {
					t.Fatalf("commit: %v", err)
				}
				time.Sleep(ackWait())
				var complaints []string
				for i, n := range nodes {
					d := n.Counters().Sub(before[i])
					got := trace.FamilyCounters{LogAppends: d.LogAppends, LogForces: d.LogForces,
						MsgsSent: d.MsgsSent, MsgsRecv: d.MsgsRecv}
					if want := row.want[n.ID()]; got != want {
						complaints = append(complaints, fmt.Sprintf("%v: %+v, want %+v", n.ID(), got, want))
					}
				}
				return strings.Join(complaints, "; ")
			})
		})
	}
}
