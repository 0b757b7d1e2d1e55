// Command camelot-sim runs a configurable failure scenario: N sites,
// a distributed update transaction, a protocol choice, and a crash or
// partition injected mid-commit. It prints the timeline and each
// site's final state — a scriptable version of the blocking
// experiments in §3.3/§4.3.
//
// Usage:
//
//	camelot-sim [-sites N] [-protocol 2pc|nb|paxos] [-crash coordinator|sub|none]
//	            [-crash-after d] [-partition] [-recover-after d] [-seed n]
package main

import (
	"errors"
	"flag"
	"fmt"
	"time"

	"camelot/camelot"
	"camelot/internal/sim"
)

func main() {
	sites := flag.Int("sites", 3, "number of sites (coordinator + subordinates)")
	protocol := camelot.TwoPhase
	flag.TextVar(&protocol, "protocol", protocol, "commit protocol: 2pc, nb, or paxos")
	crash := flag.String("crash", "coordinator", "what to crash mid-commit: coordinator, sub, none")
	crashAfter := flag.Duration("crash-after", 50*time.Millisecond, "crash delay after commit is issued")
	partition := flag.Bool("partition", false, "partition instead of crashing")
	recoverAfter := flag.Duration("recover-after", 0, "recover/heal after this delay (0 = never)")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()

	k := sim.New(*seed)
	cluster := camelot.NewCluster(k, camelot.DefaultConfig())
	for id := camelot.SiteID(1); id <= camelot.SiteID(*sites); id++ {
		cluster.AddNode(id).AddServer(fmt.Sprintf("srv%d", id))
	}
	logf := func(format string, args ...any) {
		fmt.Printf("[%8.1f ms] %s\n", float64(k.Now())/float64(time.Millisecond),
			fmt.Sprintf(format, args...))
	}

	k.Go("scenario", func() {
		tx, err := cluster.Node(1).Begin()
		if err != nil {
			return
		}
		for id := camelot.SiteID(1); id <= camelot.SiteID(*sites); id++ {
			if err := tx.Write(fmt.Sprintf("srv%d", id), "k", []byte("v")); err != nil {
				logf("operation at site %d failed: %v", id, err)
				tx.Abort() //nolint:errcheck
				return
			}
		}
		logf("operations done at %d sites; committing (%v)", *sites, protocol)
		k.Go("commit", func() {
			err := tx.CommitWith(camelot.Options{Protocol: protocol, PaxosF: 1})
			switch {
			case err == nil:
				logf("commit-transaction returned: COMMITTED")
			case errors.Is(err, camelot.ErrAborted):
				logf("commit-transaction returned: ABORTED")
			default:
				logf("commit-transaction returned: %v", err)
			}
		})

		victim := camelot.SiteID(0)
		switch *crash {
		case "coordinator":
			victim = 1
		case "sub":
			victim = 2
		}
		if victim != 0 {
			k.Sleep(*crashAfter)
			if *partition {
				for id := camelot.SiteID(1); id <= camelot.SiteID(*sites); id++ {
					if id != victim {
						cluster.Network().SetPartition(victim, id, true)
					}
				}
				logf("site %d PARTITIONED from the rest", victim)
			} else {
				cluster.Node(victim).Crash()
				logf("site %d CRASHED", victim)
			}
			if *recoverAfter > 0 {
				k.Sleep(*recoverAfter)
				if *partition {
					for id := camelot.SiteID(1); id <= camelot.SiteID(*sites); id++ {
						if id != victim {
							cluster.Network().SetPartition(victim, id, false)
						}
					}
					logf("partition HEALED")
				} else {
					cluster.Node(victim).Recover()
					logf("site %d RECOVERED", victim)
				}
			}
		}

		k.Sleep(30 * time.Second)
		for id := camelot.SiteID(1); id <= camelot.SiteID(*sites); id++ {
			n := cluster.Node(id)
			if n.Crashed() {
				logf("site %d: crashed", id)
				continue
			}
			v, ok := n.Server(fmt.Sprintf("srv%d", id)).Peek("k")
			st := n.TM().Stats()
			logf("site %d: committed-value-present=%v (%q) promotions=%d inquiries=%d",
				id, ok, v, st.Promotions, st.Inquiries)
		}
		k.Stop()
	})
	k.RunUntil(10 * time.Minute)
	if msg := k.Deadlocked(); msg != "" {
		fmt.Println(msg)
	}
}
