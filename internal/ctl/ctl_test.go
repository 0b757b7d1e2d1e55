package ctl

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"camelot/camelot"
	"camelot/internal/shardmap"
	"camelot/internal/tid"
	"camelot/internal/wire"
)

// startShardedNode brings up one in-process RealNode under the given
// shard map with a ctl server, and returns a dialed client.
func startShardedNode(t *testing.T, site camelot.SiteID, m *shardmap.Map) (*camelot.RealNode, *Client) {
	t.Helper()
	cfg := camelot.DefaultRealConfig(site)
	cfg.WALPath = filepath.Join(t.TempDir(), "wal")
	cfg.ShardMap = m
	n, err := camelot.StartRealNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() }) //nolint:errcheck // test teardown
	if err := n.Recover(); err != nil {
		t.Fatal(err)
	}
	s, err := Serve(n, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() }) //nolint:errcheck // test teardown
	c, err := DialTimeout(s.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() }) //nolint:errcheck // test teardown
	return n, c
}

// keyAt returns a key under prefix whose home site is want (0 for a
// key on an unplaced shard).
func keyAt(t *testing.T, m *shardmap.Map, prefix string, want camelot.SiteID) string {
	t.Helper()
	k, err := m.KeyAt(prefix, want)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestCtlRejectsUncoveredKeyLoudly is the regression test for the
// control plane's handling of keys no shard covers: the request must
// fail immediately with the typed no-shard error — never hang until
// some timeout, never a generic string-only failure.
func TestCtlRejectsUncoveredKeyLoudly(t *testing.T) {
	// Shards 1 and 3 are unplaced; their keys are covered by no site.
	m := &shardmap.Map{Version: 1, Shards: 4, Placement: []camelot.SiteID{1, 0, 1, 0}}
	_, c := startShardedNode(t, 1, m)

	bt, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	uncovered := keyAt(t, m, "hole", 0)

	start := time.Now()
	err = c.WriteKey(bt, uncovered, []byte("v"))
	elapsed := time.Since(start)
	if !errors.Is(err, ErrNoShard) {
		t.Fatalf("WriteKey(uncovered) = %v, want ErrNoShard", err)
	}
	if _, err := c.ReadKey(bt, uncovered); !errors.Is(err, ErrNoShard) {
		t.Fatalf("ReadKey(uncovered) = %v, want ErrNoShard", err)
	}
	if _, _, err := c.PeekKey(uncovered); !errors.Is(err, ErrNoShard) {
		t.Fatalf("PeekKey(uncovered) = %v, want ErrNoShard", err)
	}
	// "Loudly" means synchronously: the rejection is a routing verdict,
	// not a lock or RPC timeout (those run 2s+ under the default
	// config).
	if elapsed > time.Second {
		t.Fatalf("uncovered-key rejection took %v; must not ride a timeout", elapsed)
	}
	if err := c.Abort(bt); err != nil {
		t.Fatal(err)
	}
}

func TestCtlRejectsForeignKeyWithWrongSite(t *testing.T) {
	m, err := shardmap.New(1, 4, []camelot.SiteID{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	_, c := startShardedNode(t, 1, m)
	bt, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	foreign := keyAt(t, m, "far", 2)
	if err := c.WriteKey(bt, foreign, []byte("v")); !errors.Is(err, ErrWrongSite) {
		t.Fatalf("WriteKey(foreign) = %v, want ErrWrongSite", err)
	}
	if err := c.Abort(bt); err != nil {
		t.Fatal(err)
	}
}

// TestCtlRefusesUnknownProtocol is the regression test for a commit
// that names a protocol the node does not know: it used to fall
// through to two-phase commit and answer OK. The request must be
// refused with the accepted set named, before the commit starts — the
// transaction is still active and commits under a real protocol name.
func TestCtlRefusesUnknownProtocol(t *testing.T) {
	_, c := startShardedNode(t, 1, shardmap.Default(1))
	bt, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteKey(bt, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	_, err = c.CommitWith(bt, "paxso")
	if err == nil {
		t.Fatal(`CommitWith("paxso") committed; an unknown protocol must be refused`)
	}
	if errors.Is(err, ErrAborted) {
		t.Fatalf(`CommitWith("paxso") = %v; a refusal is not an abort`, err)
	}
	// The one sentence every refusal prints: the bad name and the
	// accepted set, as wire.ParseProtocol builds it.
	if _, want := wire.ParseProtocol("paxso"); err.Error() != want.Error() {
		t.Errorf("refusal = %q, want %q", err, want)
	}
	for _, p := range wire.Protocols() {
		if !strings.Contains(err.Error(), p.String()) {
			t.Errorf("refusal %q does not name %v", err, p)
		}
	}
	// Empty still means two-phase commit, and the refused transaction
	// was left active, neither committed nor aborted.
	if _, err := c.CommitWith(bt, ""); err != nil {
		t.Fatalf(`CommitWith("") after the refusal: %v`, err)
	}
	if _, ok, err := c.PeekKey("k"); err != nil || !ok {
		t.Fatalf("PeekKey after the commit = present %v, err %v", ok, err)
	}
}

// TestCtlAbortAfterCommitFails: the abort op answers OK only for a
// transaction it aborted; after a commit it carries the refusal, and
// the committed value stays.
func TestCtlAbortAfterCommitFails(t *testing.T) {
	_, c := startShardedNode(t, 1, shardmap.Default(1))
	bt, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteKey(bt, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CommitWith(bt, ""); err != nil {
		t.Fatal(err)
	}
	if err := c.Abort(bt); err == nil {
		t.Error("Abort after the commit answered OK")
	}
	if v, ok, err := c.PeekKey("k"); err != nil || !ok || string(v) != "v" {
		t.Errorf("PeekKey after the refused abort = %q, present %v, err %v", v, ok, err)
	}
}

// TestCtlReadOfAbsentKeyIsTyped: a read the site served, of a key with
// no value, comes back as ErrNoSuchKey — the class a prober needs to
// tell "absent" from "could not take the lock" — and not as either
// routing error; once the key has a value the same read succeeds.
func TestCtlReadOfAbsentKeyIsTyped(t *testing.T) {
	m, err := shardmap.New(2, 4, []camelot.SiteID{1})
	if err != nil {
		t.Fatal(err)
	}
	_, c := startShardedNode(t, 1, m)
	key := keyAt(t, m, "absent", 1)

	bt, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	val, err := c.ReadKey(bt, key)
	if !errors.Is(err, ErrNoSuchKey) || errors.Is(err, ErrNoShard) || errors.Is(err, ErrWrongSite) {
		t.Fatalf("ReadKey(absent) = %q, %v; want ErrNoSuchKey", val, err)
	}
	if err := c.WriteKey(bt, key, []byte("v")); err != nil {
		t.Fatalf("WriteKey under the reader's own lock: %v", err)
	}
	if val, err := c.ReadKey(bt, key); err != nil || !bytes.Equal(val, []byte("v")) {
		t.Fatalf("ReadKey after the write = %q, %v", val, err)
	}
	if err := c.Abort(bt); err != nil {
		t.Fatal(err)
	}
}

// TestCtlShardedRoundTrip drives the happy path over the control
// plane: shard map agreement, a routed write, commit, and the routed
// presence check the oracle uses.
func TestCtlShardedRoundTrip(t *testing.T) {
	m, err := shardmap.New(2, 4, []camelot.SiteID{1})
	if err != nil {
		t.Fatal(err)
	}
	_, c := startShardedNode(t, 1, m)

	got, err := c.ShardMap()
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("ShardMap over ctl = %q, want %q", got, want)
	}

	bt, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	key := keyAt(t, m, "rt", 1)
	if err := c.WriteKey(bt, key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if out, err := c.CommitWith(bt, "2pc"); err != nil {
		t.Fatalf("Commit: %v (outcome %v)", err, out)
	}
	val, ok, err := c.PeekKey(key)
	if err != nil || !ok || !bytes.Equal(val, []byte("v")) {
		t.Fatalf("PeekKey(%q) = %q, %v, %v", key, val, ok, err)
	}
	// The sharded oracle view answers through the same path.
	v := &View{C: c}
	if has, err := v.HasKey(key); err != nil || !has {
		t.Fatalf("View.HasKey(%q) = %v, %v", key, has, err)
	}
	if err := v.Probe(); err != nil {
		t.Fatalf("View.Probe: %v", err)
	}
	// ensure tid referenced (TID halves travel through the client).
	_ = tid.TID{}
}
