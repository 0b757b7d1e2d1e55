package camelot

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"camelot/internal/shardmap"
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
