package camelot

import (
	"bytes"
	"testing"
	"time"

	"camelot/internal/rt"
)

// TestRealtimeClusterEndToEnd drives the public API on the ordinary
// Go runtime: true concurrency, wall-clock timers, no simulation.
func TestRealtimeClusterEndToEnd(t *testing.T) {
	cfg := fastConfig()
	c := NewCluster(rt.Real(), cfg)
	for id := SiteID(1); id <= 3; id++ {
		c.AddNode(id).AddServer(srvName(id))
	}

	// A distributed update under each protocol.
	for _, opts := range []Options{{}, {Protocol: NonBlocking}} {
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
		if err := tx.CommitWith(opts); err != nil {
			t.Fatalf("CommitWith(%+v): %v", opts, err)
		}
	}

	// The subordinate applies within a real-time deadline.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if v, ok := c.Node(2).Server("srv2").Peek("y"); ok && bytes.Equal(v, []byte("2")) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if v, ok := c.Node(2).Server("srv2").Peek("y"); !ok || !bytes.Equal(v, []byte("2")) {
		t.Fatalf("subordinate state y = %q (%v)", v, ok)
	}

	// An abort, and crash/recovery, also work in real time.
	tx, _ := c.Node(1).Begin()
	tx.Write("srv1", "doomed", []byte("x")) //nolint:errcheck
	if err := tx.Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	n := c.Node(3)
	seedTx, _ := n.Begin()
	seedTx.Write("srv3", "kept", []byte("v")) //nolint:errcheck
	if err := seedTx.Commit(); err != nil {
		t.Fatalf("commit at site3: %v", err)
	}
	n.Crash()
	n.Recover()
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok := n.Server("srv3").Peek("kept"); ok {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("recovered node lost committed data")
}
