package camelot

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"camelot/internal/shardmap"
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

// TestFaultFreeRunNeverRetransmits pins the ack-wait timer to the
// node's own configuration: with nothing lost, no retry round may
// fire. Every twentieth commit is followed by an idle gap, so its
// subordinate commit record has only the log flusher to make it
// durable and its ack only the ack flusher to carry it — the slowest
// answer a healthy subordinate gives. A retry timer also fires when
// the host stalls the process for its whole period, which a loaded
// test machine does now and then, so a protocol gets three rounds and
// needs one clean; a timer shorter than the configuration implies
// fails every round.
func TestFaultFreeRunNeverRetransmits(t *testing.T) {
	sites := []SiteID{1, 2}
	m, err := shardmap.New(1, len(sites), sites)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var nodes []*RealNode
	for _, id := range sites {
		cfg := DefaultRealConfig(id)
		cfg.WALPath = filepath.Join(dir, fmt.Sprintf("site%d.wal", id))
		cfg.ShardMap = m
		n, err := StartRealNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close() //nolint:errcheck // test teardown
		if err := n.Recover(); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
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
	txns := 300
	if testing.Short() {
		txns = 60
	}
	idle := DefaultRealConfig(1).RetryInterval * 2
	retransmits := func() int {
		total := 0
		for _, n := range nodes {
			total += n.TM().Stats().Retransmits
		}
		return total
	}
	// round commits txns two-site transactions under proto and returns
	// how many datagrams the sites re-sent meanwhile.
	round := func(proto Protocol, attempt int) int {
		before := retransmits()
		for i := 0; i < txns; i++ {
			tx, err := nodes[0].Begin()
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range nodes {
				key, err := m.KeyAt(fmt.Sprintf("%s.%d.%d", proto, attempt, i), n.ID())
				if err != nil {
					t.Fatal(err)
				}
				if err := n.WriteKey(tx, key, []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			nodes[0].AddSites(tx, sites[1:])
			if _, err := nodes[0].Commit(tx, Options{Protocol: proto, PaxosF: 1}); err != nil {
				t.Fatalf("%s commit %d: %v", proto, i, err)
			}
			if i%20 == 19 {
				time.Sleep(idle)
			}
		}
		time.Sleep(idle)
		return retransmits() - before
	}
	for _, proto := range wire.Protocols() {
		var seen []int
		for attempt := 0; attempt < 3; attempt++ {
			r := round(proto, attempt)
			if r == 0 {
				seen = nil
				break
			}
			seen = append(seen, r)
		}
		if seen != nil {
			t.Errorf("%s: %v datagrams retransmitted in three fault-free rounds of %d commits", proto, seen, txns)
		}
	}
}
