package camelot

import (
	"testing"
	"time"

	"camelot/internal/sim"
)

// TestRemoteGrandparentAbortUndoesGrandchild: top → G → P → C, where
// only C operates at site 2. C commits into P there, so site 2 meets P
// for the first time on the CHILD-COMMIT; G's abort must still undo C's
// write when top commits.
func TestRemoteGrandparentAbortUndoesGrandchild(t *testing.T) {
	runSim(t, fastConfig(), func(k *sim.Kernel, c *Cluster) {
		seed(t, c.Node(2), "srv2", "y", "old")
		top, _ := c.Node(1).Begin()
		if err := top.Write("srv1", "x", []byte("top")); err != nil {
			t.Fatalf("top write: %v", err)
		}
		g, err := top.Child()
		if err != nil {
			t.Fatalf("G: %v", err)
		}
		p, err := g.Child()
		if err != nil {
			t.Fatalf("P: %v", err)
		}
		ch, err := p.Child()
		if err != nil {
			t.Fatalf("C: %v", err)
		}
		if err := ch.Write("srv2", "y", []byte("c")); err != nil {
			t.Fatalf("C remote write: %v", err)
		}
		if err := ch.Commit(); err != nil {
			t.Fatalf("C commit: %v", err)
		}
		k.Sleep(100 * time.Millisecond) // child-commit datagram
		if err := g.Abort(); err != nil {
			t.Fatalf("G abort: %v", err)
		}
		k.Sleep(100 * time.Millisecond) // child-abort datagram
		if locks := c.Node(2).Server("srv2").Locks(); locks.HoldsAny(ch.ID()) || locks.HoldsAny(p.ID()) {
			t.Error("site 2 still holds a lock of the aborted subtree")
		}
		if err := top.Commit(); err != nil {
			t.Fatalf("top commit: %v", err)
		}
		k.Sleep(500 * time.Millisecond)
		if v, _ := c.Node(2).Server("srv2").Peek("y"); string(v) != "old" {
			t.Errorf("y = %q after grandparent abort + top commit, want \"old\"", v)
		}
	})
}

// TestAbortedChildStaysAbortedAfterRecovery: a child's write undone by
// its abort must not come back when the committed parent's log is
// redone after a crash.
func TestAbortedChildStaysAbortedAfterRecovery(t *testing.T) {
	runSim(t, fastConfig(), func(k *sim.Kernel, c *Cluster) {
		n := c.Node(1)
		parent, _ := n.Begin()
		if err := parent.Write("srv1", "a", []byte("p")); err != nil {
			t.Fatalf("parent write: %v", err)
		}
		child, _ := parent.Child()
		if err := child.Write("srv1", "b", []byte("c")); err != nil {
			t.Fatalf("child write: %v", err)
		}
		if err := child.Abort(); err != nil {
			t.Fatalf("child abort: %v", err)
		}
		if err := parent.Commit(); err != nil {
			t.Fatalf("parent commit: %v", err)
		}
		n.Crash()
		if err := n.Recover(); err != nil {
			t.Fatalf("Recover: %v", err)
		}
		k.Sleep(200 * time.Millisecond)
		if v, ok := n.Server("srv1").Peek("a"); !ok || string(v) != "p" {
			t.Errorf("a = %q (%v) after recovery, want \"p\"", v, ok)
		}
		if v, ok := n.Server("srv1").Peek("b"); ok {
			t.Errorf("b = %q after recovery, want absent: the aborted child's write came back", v)
		}
	})
}
