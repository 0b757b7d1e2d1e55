package camelot

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"camelot/internal/sim"
)

// The torture test: random crash, recovery, partition, and heal
// events are injected while a client pushes distributed update
// transactions through the cluster. After everything heals, the
// atomicity invariant must hold for every transaction: its writes are
// present at all three sites or at none, the client's view agrees
// with the sites, and no locks are leaked. This is run for both
// commitment protocols across many seeds; determinism of the
// simulation makes any failure replayable by its seed.

type tortureOutcome int

const (
	oCommitted tortureOutcome = iota
	oAborted
	oUnknown // coordinator crashed with the call in flight
)

func TestAtomicityUnderRandomFaults(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := 0; seed < seeds; seed++ {
		for _, proto := range []Protocol{TwoPhase, NonBlocking} {
			name := fmt.Sprintf("seed=%d/nonblocking=%v", seed, proto == NonBlocking)
			t.Run(name, func(t *testing.T) {
				tortureRun(t, int64(seed), proto)
			})
		}
	}
}

func tortureRun(t *testing.T, seed int64, proto Protocol) {
	t.Helper()
	k := sim.New(seed)
	cfg := fastConfig()
	cfg.PromotionTimeout = 150 * time.Millisecond
	cfg.InquireInterval = 150 * time.Millisecond
	c := NewCluster(k, cfg)
	for id := SiteID(1); id <= 3; id++ {
		c.AddNode(id).AddServer(srvName(id))
	}
	rng := rand.New(rand.NewSource(seed * 7919))

	const txns = 15
	outcomes := make([]tortureOutcome, txns)

	// The fault injector: every so often, crash a subordinate or cut
	// a link, then repair it a bit later. Site 1 (the coordinator for
	// every transaction) is only crashed between transactions, by the
	// client loop itself.
	stopFaults := false
	k.Go("fault-injector", func() {
		for !stopFaults {
			k.Sleep(time.Duration(20+rng.Intn(150)) * time.Millisecond)
			if stopFaults {
				return
			}
			victim := SiteID(2 + rng.Intn(2))
			switch rng.Intn(3) {
			case 0:
				c.Node(victim).Crash()
				k.Sleep(time.Duration(30+rng.Intn(300)) * time.Millisecond)
				c.Node(victim).Recover()
			case 1:
				other := SiteID(1 + rng.Intn(3))
				if other == victim {
					other = 1
				}
				c.Network().SetPartition(victim, other, true)
				k.Sleep(time.Duration(30+rng.Intn(300)) * time.Millisecond)
				c.Network().SetPartition(victim, other, false)
			case 2:
				// Transient datagram loss.
				c.Network().SetLossRate(0.3)
				k.Sleep(time.Duration(30+rng.Intn(200)) * time.Millisecond)
				c.Network().SetLossRate(0)
			}
		}
	})

	k.Go("client", func() {
		for i := 0; i < txns; i++ {
			// Occasionally bounce the coordinator between transactions.
			if rng.Intn(6) == 0 {
				c.Node(1).Crash()
				k.Sleep(50 * time.Millisecond)
				c.Node(1).Recover()
				k.Sleep(50 * time.Millisecond)
			}
			key := fmt.Sprintf("k%d", i)
			tx, err := c.Node(1).Begin()
			if err != nil {
				outcomes[i] = oAborted
				continue
			}
			ok := true
			for id := SiteID(1); id <= 3; id++ {
				if err := tx.Write(srvName(id), key, []byte("v")); err != nil {
					ok = false
					break
				}
			}
			if !ok {
				tx.Abort() //nolint:errcheck
				outcomes[i] = oAborted
				continue
			}
			err = tx.CommitWith(Options{Protocol: proto})
			switch {
			case err == nil:
				outcomes[i] = oCommitted
			case errors.Is(err, ErrAborted):
				outcomes[i] = oAborted
			default:
				outcomes[i] = oUnknown
			}
			k.Sleep(time.Duration(rng.Intn(100)) * time.Millisecond)
		}
		// Quiesce: stop faults, repair the world, let every pending
		// resolution finish.
		stopFaults = true
		c.Network().SetLossRate(0)
		for a := SiteID(1); a <= 3; a++ {
			for b := a + 1; b <= 3; b++ {
				c.Network().SetPartition(a, b, false)
			}
		}
		for id := SiteID(1); id <= 3; id++ {
			if c.Node(id).Crashed() {
				c.Node(id).Recover()
			}
		}
		k.Sleep(30 * time.Second)

		// Verify atomicity of every transaction.
		committedCount := 0
		for i := 0; i < txns; i++ {
			key := fmt.Sprintf("k%d", i)
			present := 0
			for id := SiteID(1); id <= 3; id++ {
				if _, ok := c.Node(id).Server(srvName(id)).Peek(key); ok {
					present++
				}
			}
			switch outcomes[i] {
			case oCommitted:
				if present != 3 {
					t.Errorf("txn %d: client saw COMMIT but %d/3 sites have the write", i, present)
				}
				committedCount++
			case oAborted:
				if present != 0 {
					t.Errorf("txn %d: client saw ABORT but %d/3 sites have the write", i, present)
				}
			case oUnknown:
				if present != 0 && present != 3 {
					t.Errorf("txn %d: outcome unknown and sites split %d/3 — atomicity violated", i, present)
				}
			}
		}
		// No leaked locks: every key must be writable now.
		for id := SiteID(1); id <= 3; id++ {
			tx, err := c.Node(id).Begin()
			if err != nil {
				t.Errorf("site %d unusable after quiesce: %v", id, err)
				continue
			}
			if err := tx.Write(srvName(id), "probe", []byte("x")); err != nil {
				t.Errorf("site %d: lock leaked: %v", id, err)
			}
			tx.Abort() //nolint:errcheck
		}
		if committedCount == 0 {
			t.Log("torture run committed nothing; faults may be too aggressive for this seed")
		}
		k.Stop()
	})
	k.RunUntil(10 * time.Minute)
	if msg := k.Deadlocked(); msg != "" {
		t.Fatal(msg)
	}
}
