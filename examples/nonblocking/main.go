// Nonblocking: the failure scenario that motivates the paper's §3.3.
// A coordinator crashes inside the commit protocol's window of
// vulnerability. Under two-phase commit the subordinates stay blocked
// — prepared, holding their write locks — until the coordinator
// recovers. Under the non-blocking protocol they time out, one
// promotes itself to coordinator, and the survivors finish by quorum.
package main

import (
	"errors"
	"fmt"
	"time"

	"camelot/camelot"
	"camelot/internal/sim"
)

func main() {
	fmt.Println("--- two-phase commit: coordinator crash blocks the subordinates ---")
	demo(camelot.Options{}, false)
	fmt.Println()
	fmt.Println("--- two-phase commit: blocked until the coordinator recovers ---")
	demo(camelot.Options{}, true)
	fmt.Println()
	fmt.Println("--- non-blocking commit: survivors finish without the coordinator ---")
	demo(camelot.Options{Protocol: camelot.NonBlocking}, false)
}

// demo runs a three-site update transaction, crashes the coordinator
// mid-commit, and reports whether the subordinates resolve. If
// recover is set, the coordinator is restarted after a while.
func demo(opts camelot.Options, recoverCoord bool) {
	k := sim.New(7)
	cfg := camelot.DefaultConfig()
	cfg.PromotionTimeout = 2 * time.Second
	cfg.InquireInterval = 2 * time.Second
	cluster := camelot.NewCluster(k, cfg)
	for id := camelot.SiteID(1); id <= 3; id++ {
		cluster.AddNode(id).AddServer(fmt.Sprintf("srv%d", id))
	}

	k.Go("main", func() {
		tx, err := cluster.Node(1).Begin()
		if err != nil {
			return
		}
		tx.Write("srv1", "x", []byte("1")) //nolint:errcheck
		tx.Write("srv2", "y", []byte("2")) //nolint:errcheck
		tx.Write("srv3", "z", []byte("3")) //nolint:errcheck

		k.Go("commit", func() {
			err := tx.CommitWith(opts)
			switch {
			case err == nil:
				fmt.Printf("  [%7.1f ms] commit call returned: COMMITTED\n", ms(k.Now()))
			case errors.Is(err, camelot.ErrAborted):
				fmt.Printf("  [%7.1f ms] commit call returned: ABORTED\n", ms(k.Now()))
			}
		})
		// Crash the coordinator inside the window of vulnerability:
		// the subordinates have forced their prepare records (~40 ms
		// into the protocol under the paper's cost model: prepare
		// datagram 10 ms, vote round 3 ms, prepare force 15 ms) but
		// the outcome has not been decided or sent.
		k.Sleep(50 * time.Millisecond)
		cluster.Node(1).Crash()
		fmt.Printf("  [%7.1f ms] coordinator CRASHED; subordinates are prepared\n", ms(k.Now()))

		report := func() {
			blocked2 := holdsLock(cluster, 2, "y")
			blocked3 := holdsLock(cluster, 3, "z")
			fmt.Printf("  [%7.1f ms] subordinate locks held: site2=%v site3=%v\n",
				ms(k.Now()), blocked2, blocked3)
		}
		k.Sleep(5 * time.Second)
		report()
		if recoverCoord {
			cluster.Node(1).Recover()
			fmt.Printf("  [%7.1f ms] coordinator recovered; replaying its log\n", ms(k.Now()))
			k.Sleep(10 * time.Second)
			report()
		} else if opts.Protocol == camelot.NonBlocking {
			proms := cluster.Node(2).TM().Stats().Promotions +
				cluster.Node(3).TM().Stats().Promotions
			fmt.Printf("  [%7.1f ms] subordinate promotions to coordinator: %d\n",
				ms(k.Now()), proms)
		}
		k.Stop()
	})
	k.RunUntil(5 * time.Minute)
}

// holdsLock probes whether the transaction still holds its write lock
// at the site by attempting a conflicting write.
func holdsLock(c *camelot.Cluster, id camelot.SiteID, key string) bool {
	tx, err := c.Node(id).Begin()
	if err != nil {
		return true
	}
	defer tx.Abort() //nolint:errcheck
	return tx.Write(fmt.Sprintf("srv%d", id), key, []byte("probe")) != nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
