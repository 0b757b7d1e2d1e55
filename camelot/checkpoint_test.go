package camelot

import (
	"fmt"
	"testing"
	"time"

	"camelot/internal/sim"
	"camelot/internal/tid"
	"camelot/internal/trace"
	"camelot/internal/wire"
)

func TestCheckpointTruncatesAndRecoverySurvives(t *testing.T) {
	runSim(t, fastConfig(), func(k *sim.Kernel, c *Cluster) {
		n := c.Node(1)
		for i := 0; i < 5; i++ {
			seed(t, n, "srv1", fmt.Sprintf("pre%d", i), "v")
		}
		k.Sleep(100 * time.Millisecond) // lazy records reach the disk
		cut, err := n.Checkpoint()
		if err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		if cut == 0 {
			t.Fatal("checkpoint truncated nothing despite resolved history")
		}
		recs, _ := n.Log().Records()
		if len(recs) != 0 {
			t.Fatalf("%d records left after quiescent checkpoint", len(recs))
		}
		// Post-checkpoint transactions land in the fresh tail.
		seed(t, n, "srv1", "post", "v")
		// Crash and recover: data from before AND after the checkpoint
		// must survive.
		n.Crash()
		n.Recover()
		k.Sleep(200 * time.Millisecond)
		for i := 0; i < 5; i++ {
			if _, ok := n.Server("srv1").Peek(fmt.Sprintf("pre%d", i)); !ok {
				t.Errorf("pre-checkpoint key pre%d lost", i)
			}
		}
		if _, ok := n.Server("srv1").Peek("post"); !ok {
			t.Error("post-checkpoint key lost")
		}
		// New transactions after recovery still work (family floor and
		// resolved memory intact).
		seed(t, n, "srv1", "after-recovery", "v")
	})
}

// TestRecoveredServerSharesNoBytesWithCheckpoint: a server recovered
// from the page image shares the image's chunks, and so does the copy of
// the image the next checkpoint redoes the log onto. Neither may write a
// byte the other reads. The site checkpoints, crashes and recovers, so
// its server adopts a clone of the image; it then commits overwrites and
// an insert, and aborts a write the checkpoint's redo never repeats,
// checkpoints again, commits more and crashes and recovers again. After
// each step every key reads its last committed value.
func TestRecoveredServerSharesNoBytesWithCheckpoint(t *testing.T) {
	runSim(t, fastConfig(), func(k *sim.Kernel, c *Cluster) {
		n := c.Node(1)
		want := make(map[string]string)
		var keys []string
		commit := func(key, val string) {
			seed(t, n, "srv1", key, val)
			if _, ok := want[key]; !ok {
				keys = append(keys, key)
			}
			want[key] = val
		}
		check := func(when string) {
			for _, key := range keys {
				if v, ok := n.Server("srv1").Peek(key); !ok || string(v) != want[key] {
					t.Errorf("%s: %s = %q (%v), want %q", when, key, v, ok, want[key])
				}
			}
		}
		checkpoint := func() {
			k.Sleep(100 * time.Millisecond) // lazy records reach the disk
			if _, err := n.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
		}
		restart := func() {
			n.Crash()
			if err := n.Recover(); err != nil {
				t.Fatalf("Recover: %v", err)
			}
			k.Sleep(200 * time.Millisecond)
		}

		for i := 0; i < 10; i++ {
			commit(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
		}
		checkpoint()
		restart()
		check("after the first recovery")

		tx, _ := n.Begin()
		if err := tx.Write("srv1", "k0", []byte("aborted after the image")); err != nil {
			t.Fatalf("Write: %v", err)
		}
		if err := tx.Abort(); err != nil {
			t.Fatalf("Abort: %v", err)
		}
		commit("k1", "committed after the image")
		commit("new", "inserted after the image")
		check("after the writes")
		checkpoint()
		check("after the second checkpoint")
		commit("k2", "committed after the second checkpoint")
		restart()
		check("after the second recovery")
	})
}

func TestCheckpointWithInFlightDistributedTransaction(t *testing.T) {
	runSim(t, fastConfig(), func(k *sim.Kernel, c *Cluster) {
		seed(t, c.Node(1), "srv1", "old", "v")
		k.Sleep(100 * time.Millisecond)

		// Start a distributed transaction and checkpoint the
		// subordinate while it is prepared.
		tx, _ := c.Node(1).Begin()
		tx.Write("srv1", "x", []byte("1")) //nolint:errcheck
		tx.Write("srv2", "y", []byte("2")) //nolint:errcheck
		done := false
		k.Go("commit", func() {
			tx.Commit() //nolint:errcheck
			done = true
		})
		k.Sleep(3 * time.Millisecond) // sub prepared, outcome pending
		if _, err := c.Node(2).Checkpoint(); err != nil {
			t.Fatalf("checkpoint with in-doubt txn: %v", err)
		}
		// The in-doubt transaction's records must have been retained:
		// crash the sub and let recovery + the protocol finish.
		c.Node(2).Crash()
		c.Node(2).Recover()
		k.Sleep(3 * time.Second)
		if !done {
			t.Fatal("commit never resolved after sub checkpoint+crash")
		}
		k.Sleep(time.Second)
		if v, ok := c.Node(2).Server("srv2").Peek("y"); ok && string(v) != "2" {
			t.Errorf("y = %q after recovery", v)
		}
	})
}

// TestTruncatedResolvedAnswersInquiryFromImage pins the resolved-map
// truncation contract: after a checkpoint absorbs a committed
// family's outcome, TruncateResolved drops it from the TM's in-memory
// map (Stats.ResolvedRetained goes to zero) — yet a late presumed-
// abort inquiry for that family must still be answered COMMIT,
// through the PageStore image backstop. Answering ABORT here would
// corrupt a subordinate.
func TestTruncatedResolvedAnswersInquiryFromImage(t *testing.T) {
	cfg := fastConfig()
	cfg.Trace = true
	runSim(t, cfg, func(k *sim.Kernel, c *Cluster) {
		tx, _ := c.Node(1).Begin()
		tx.Write("srv1", "x", []byte("1")) //nolint:errcheck
		tx.Write("srv2", "y", []byte("2")) //nolint:errcheck
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit: %v", err)
		}
		fam := tx.ID().Family
		k.Sleep(500 * time.Millisecond) // acks drain; coordinator forgets

		if got := c.Node(1).TM().Stats().ResolvedRetained; got == 0 {
			t.Fatal("resolved outcome not retained before checkpoint")
		}
		if cut, err := c.Node(1).Checkpoint(); err != nil || cut == 0 {
			t.Fatalf("Checkpoint = %d, %v", cut, err)
		}
		if got := c.Node(1).TM().Stats().ResolvedRetained; got != 0 {
			t.Fatalf("ResolvedRetained = %d after checkpoint, want 0 (truncation)", got)
		}

		// Inject the late inquiry a recovering subordinate would send.
		mark := len(c.Trace().Events())
		c.Network().Send(2, 1, &wire.Msg{Kind: wire.KInquire, TID: tid.Top(fam), From: 2, To: 1})
		k.Sleep(100 * time.Millisecond)

		var answered bool
		for _, ev := range c.Trace().Events()[mark:] {
			if ev.Kind == trace.EvMsgSend && ev.Site == 1 && ev.Peer == 2 {
				switch ev.Info {
				case "COMMIT":
					answered = true
				case "ABORT":
					t.Fatal("truncated committed family answered ABORT: image backstop not consulted")
				}
			}
		}
		if !answered {
			t.Fatal("inquiry for truncated family never answered")
		}
	})
}

func TestInquiryAnsweredFromCheckpointAbsorbedOutcome(t *testing.T) {
	runSim(t, fastConfig(), func(k *sim.Kernel, c *Cluster) {
		// Commit a distributed transaction fully, checkpoint the
		// coordinator (absorbing its COMMIT/END records), crash and
		// recover it, and confirm a new distributed transaction works
		// and the resolved-outcome memory survived the truncation.
		tx, _ := c.Node(1).Begin()
		tx.Write("srv1", "x", []byte("1")) //nolint:errcheck
		tx.Write("srv2", "y", []byte("2")) //nolint:errcheck
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit: %v", err)
		}
		k.Sleep(500 * time.Millisecond) // acks drain; END logged
		cut, err := c.Node(1).Checkpoint()
		if err != nil || cut == 0 {
			t.Fatalf("Checkpoint = %d, %v", cut, err)
		}
		c.Node(1).Crash()
		c.Node(1).Recover()
		k.Sleep(200 * time.Millisecond)
		if v, _ := c.Node(1).Server("srv1").Peek("x"); string(v) != "1" {
			t.Errorf("x = %q after checkpointed recovery", v)
		}
		tx2, _ := c.Node(1).Begin()
		tx2.Write("srv1", "x", []byte("3")) //nolint:errcheck
		tx2.Write("srv2", "y", []byte("4")) //nolint:errcheck
		if err := tx2.Commit(); err != nil {
			t.Fatalf("post-recovery distributed commit: %v", err)
		}
	})
}
