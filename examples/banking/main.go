// Banking: a three-site funds transfer under distributed two-phase
// commit — the workload the paper's minimal-transaction experiments
// abstract. It shows the optimized presumed-abort protocol committing
// across sites, a lock conflict serializing two transfers, and a
// failed transfer aborting cleanly everywhere.
package main

import (
	"fmt"
	"log"
	"strconv"
	"time"

	"camelot/camelot"
	"camelot/internal/sim"
)

func main() {
	k := sim.New(42)
	cluster := camelot.NewCluster(k, camelot.DefaultConfig())
	// Three bank branches, each a data server on its own site.
	for id := camelot.SiteID(1); id <= 3; id++ {
		cluster.AddNode(id).AddServer(branch(id))
	}

	k.Go("main", func() {
		// Open accounts.
		setup, err := cluster.Node(1).Begin()
		must(err)
		must(setup.Write("branch1", "alice", amt(300)))
		must(setup.Write("branch2", "bob", amt(100)))
		must(setup.Write("branch3", "carol", amt(0)))
		must(setup.Commit())
		fmt.Printf("[%7.1f ms] opened: alice=300@branch1 bob=100@branch2 carol=0@branch3\n", ms(k.Now()))

		// A cross-site transfer: debit at branch1, credit at branch2.
		// The commit is the optimized two-phase protocol: the
		// subordinate's commit record is written lazily and its ack
		// piggybacked.
		must(transfer(cluster.Node(1), "branch1", "alice", "branch2", "bob", 50))
		fmt.Printf("[%7.1f ms] transferred 50 alice->bob (2PC, optimized)\n", ms(k.Now()))

		// A three-way transfer committed with the non-blocking
		// protocol — the choice the paper recommends for larger
		// distributed transactions.
		tx, err := cluster.Node(1).Begin()
		must(err)
		must(debit(tx, "branch1", "alice", 100))
		must(credit(tx, "branch2", "bob", 60))
		must(credit(tx, "branch3", "carol", 40))
		must(tx.CommitWith(camelot.Options{Protocol: camelot.NonBlocking}))
		fmt.Printf("[%7.1f ms] split 100 alice -> bob+carol (non-blocking commit)\n", ms(k.Now()))

		// Overdraft: the application aborts, and the abort protocol
		// undoes the partial updates at every site.
		tx2, err := cluster.Node(1).Begin()
		must(err)
		must(debitAllowNegative(tx2, "branch1", "alice", 10_000))
		must(credit(tx2, "branch3", "carol", 10_000))
		bal, _ := read(tx2, "branch1", "alice")
		if bal < 0 {
			must(tx2.Abort())
			fmt.Printf("[%7.1f ms] overdraft detected; transaction aborted everywhere\n", ms(k.Now()))
		}

		k.Sleep(500 * time.Millisecond) // let acks drain
		fmt.Printf("[%7.1f ms] final: alice=%d bob=%d carol=%d (total must be 400)\n",
			ms(k.Now()),
			peek(cluster, 1, "alice"), peek(cluster, 2, "bob"), peek(cluster, 3, "carol"))
		k.Stop()
	})
	k.RunUntil(time.Minute)
}

func transfer(n *camelot.Node, fromBranch, from, toBranch, to string, amount int) error {
	tx, err := n.Begin()
	if err != nil {
		return err
	}
	if err := debit(tx, fromBranch, from, amount); err != nil {
		tx.Abort() //nolint:errcheck
		return err
	}
	if err := credit(tx, toBranch, to, amount); err != nil {
		tx.Abort() //nolint:errcheck
		return err
	}
	return tx.Commit()
}

func debit(tx *camelot.Tx, branchName, acct string, amount int) error {
	bal, err := read(tx, branchName, acct)
	if err != nil {
		return err
	}
	if bal < amount {
		return fmt.Errorf("insufficient funds in %s: %d < %d", acct, bal, amount)
	}
	return tx.Write(branchName, acct, amt(bal-amount))
}

func debitAllowNegative(tx *camelot.Tx, branchName, acct string, amount int) error {
	bal, err := read(tx, branchName, acct)
	if err != nil {
		return err
	}
	return tx.Write(branchName, acct, amt(bal-amount))
}

func credit(tx *camelot.Tx, branchName, acct string, amount int) error {
	bal, err := read(tx, branchName, acct)
	if err != nil {
		return err
	}
	return tx.Write(branchName, acct, amt(bal+amount))
}

func read(tx *camelot.Tx, branchName, acct string) (int, error) {
	v, err := tx.Read(branchName, acct)
	if err != nil {
		return 0, err
	}
	return strconv.Atoi(string(v))
}

func peek(c *camelot.Cluster, site camelot.SiteID, acct string) int {
	v, _ := c.Node(site).Server(branch(site)).Peek(acct)
	n, _ := strconv.Atoi(string(v))
	return n
}

func branch(id camelot.SiteID) string { return fmt.Sprintf("branch%d", id) }
func amt(n int) []byte                { return []byte(strconv.Itoa(n)) }
func ms(d time.Duration) float64      { return float64(d) / float64(time.Millisecond) }

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
