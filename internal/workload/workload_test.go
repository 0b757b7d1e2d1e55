package workload_test

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"camelot/internal/ctl"
	"camelot/internal/load"
	"camelot/internal/oracle"
	"camelot/internal/shardmap"
	"camelot/internal/tid"
	"camelot/internal/wire"
	"camelot/internal/workload"
)

func mustMap(t *testing.T, shards int, sites ...tid.SiteID) *shardmap.Map {
	t.Helper()
	m, err := shardmap.New(1, shards, sites)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// mixPlans draws n plans of the seeded mix, recording each transaction
// the way a driver would after an executor that reached `outcome`.
func mixPlans(seed int64, n int, m *shardmap.Map, outcome oracle.Outcome) []workload.Plan {
	rng := rand.New(rand.NewSource(seed))
	var plans []workload.Plan
	var txns []oracle.Txn
	for i := 0; i < n; i++ {
		p := workload.Mix(rng, i, m, txns, wire.Protocols()[i%3])
		plans = append(plans, p)
		tx := p.Tx
		tx.Outcome = outcome
		txns = append(txns, tx)
	}
	return plans
}

// TestMixIsAFunctionOfTheSeed: a seed names one workload. What the
// executor later makes of each transaction — everything committed,
// nothing even begun — feeds back only as `earlier`, and no draw may
// depend on it.
func TestMixIsAFunctionOfTheSeed(t *testing.T) {
	m := mustMap(t, 4, 1, 2, 3)
	a := mixPlans(7, 60, m, oracle.Committed)
	b := mixPlans(7, 60, m, oracle.Skipped)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different plans: a draw consulted what the executor found")
	}
	if reflect.DeepEqual(a, mixPlans(8, 60, m, oracle.Committed)) {
		t.Fatal("seeds 7 and 8 drew the same 60 plans")
	}
	var hot, readers, cross int
	for i, p := range a {
		if len(p.Tx.Writes) == 0 || p.Coord != p.Tx.Writes[0].Site {
			t.Fatalf("plan %d: coordinator %d is not its first key's home (%+v)", i, p.Coord, p.Tx.Writes)
		}
		for _, w := range p.Tx.Writes {
			if m.SiteOf(w.Key) != w.Site {
				t.Errorf("plan %d: %q planned at site %d, homes at %d", i, w.Key, w.Site, m.SiteOf(w.Key))
			}
			if w.Shared {
				hot++
			}
		}
		if p.Read != nil {
			readers++
		}
		if len(p.Tx.Writes) > 1 {
			cross++
		}
	}
	if hot == 0 || readers == 0 || cross == 0 {
		t.Errorf("60 plans drew %d hot keys, %d readers, %d multi-key sets; the mix is not mixing", hot, readers, cross)
	}
}

// TestAcrossDropsUnplacedSites: one shard over three sites places a
// shard at one of them only; the other two drop out of the write set,
// and a plan aimed only at them keeps a non-nil empty one (the oracle's
// write-set rule tells "wrote nothing" from "not a keyspace workload").
func TestAcrossDropsUnplacedSites(t *testing.T) {
	m := mustMap(t, 1, 1, 2, 3)
	home := m.Sites()[0]
	p := workload.Across("p", m, []tid.SiteID{1, 2, 3}, home, wire.Paxos)
	if len(p.Tx.Writes) != 1 || p.Tx.Writes[0].Site != home || m.SiteOf(p.Tx.Writes[0].Key) != home {
		t.Fatalf("writes = %+v, want one key homed at site %d", p.Tx.Writes, home)
	}
	if p.Coord != home || p.Protocol != wire.Paxos || p.Read != nil || p.CommitVia != nil {
		t.Errorf("plan = %+v", p)
	}
	var unplaced []tid.SiteID
	for _, id := range []tid.SiteID{1, 2, 3} {
		if id != home {
			unplaced = append(unplaced, id)
		}
	}
	empty := workload.Across("p", m, unplaced, unplaced[0], wire.TwoPhase)
	if empty.Tx.Writes == nil || len(empty.Tx.Writes) != 0 {
		t.Fatalf("writes = %#v, want non-nil and empty", empty.Tx.Writes)
	}
	ex := workload.Executor{Client: func(tid.SiteID) *ctl.Client {
		t.Error("an empty write set reached for a client")
		return nil
	}}
	if tx, err := ex.Run(empty); tx.Outcome != oracle.Skipped || err == nil {
		t.Errorf("Run(empty) = %v, %v; want skipped and an error", tx.Outcome, err)
	}
}

// TestExecutorOnRealCluster drives plans through the one executor
// against a 3-site in-process cluster (real UDP, real ctl, on-disk
// WALs): a two-site update commits under every protocol, and each way a
// transaction is cut short lands on its documented outcome and error.
func TestExecutorOnRealCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a real cluster")
	}
	c, err := load.StartCluster(load.ClusterConfig{Sites: 3, Dir: t.TempDir(), Sessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m := mustMap(t, 3, 1, 2, 3) // StartCluster's default layout: one shard per site
	client, release := c.Clients()
	defer release()
	ex := &workload.Executor{Client: client}

	// present reads the key under its lock in a throwaway transaction,
	// so it sees the table only once the writer's commit or abort has run.
	present := func(w oracle.Write) bool {
		t.Helper()
		cl := client(w.Site)
		pt, err := cl.Begin()
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Abort(pt) //nolint:errcheck // probe cleanup
		_, err = cl.ReadKey(pt, w.Key)
		if err != nil && !errors.Is(err, ctl.ErrNoSuchKey) {
			t.Fatalf("read %q at site %d: %v", w.Key, w.Site, err)
		}
		return err == nil
	}

	var committed oracle.Txn
	for _, proto := range wire.Protocols() {
		p := workload.Across("all."+proto.String(), m, []tid.SiteID{1, 2}, 1, proto)
		tx, err := ex.Run(p)
		if err != nil || tx.Outcome != oracle.Committed || tx.Family == 0 {
			t.Fatalf("%v: Run = %+v, %v; want committed", proto, tx, err)
		}
		if len(tx.Writes) != 2 || !present(tx.Writes[0]) || !present(tx.Writes[1]) {
			t.Fatalf("%v: committed, but the write set %+v is not all in place", proto, tx.Writes)
		}
		committed = tx
	}

	t.Run("nil coordinator client", func(t *testing.T) {
		down := &workload.Executor{Client: func(id tid.SiteID) *ctl.Client {
			if id == 1 {
				return nil
			}
			return client(id)
		}}
		tx, err := down.Run(workload.Across("down", m, []tid.SiteID{1, 2}, 1, wire.TwoPhase))
		if tx.Outcome != oracle.Skipped || tx.Family != 0 || !errors.Is(err, ctl.ErrUnavailable) {
			t.Errorf("Run = %+v, %v; want skipped, never begun, ErrUnavailable", tx, err)
		}
		if down.Unavailable != 0 {
			t.Errorf("Unavailable = %d; no call was made, so none hit its deadline", down.Unavailable)
		}
	})

	t.Run("refused write", func(t *testing.T) {
		p := workload.Across("refused", m, []tid.SiteID{1, 2}, 1, wire.NonBlocking)
		p.Tx.Writes[1].Site = 3 // site 2's key, sent to site 3
		tx, err := ex.Run(p)
		if tx.Outcome != oracle.Aborted || !errors.Is(err, ctl.ErrWrongSite) {
			t.Fatalf("Run = %+v, %v; want aborted, ErrWrongSite", tx, err)
		}
		if present(p.Tx.Writes[0]) {
			t.Errorf("the abort left %q in place at site 1", p.Tx.Writes[0].Key)
		}
	})

	t.Run("read-only participant", func(t *testing.T) {
		before := ex.ReadOnlyCommitted
		p := workload.Across("reader", m, []tid.SiteID{1}, 1, wire.TwoPhase)
		p.Read = &committed.Writes[1] // a committed key at site 2
		if tx, err := ex.Run(p); err != nil || tx.Outcome != oracle.Committed {
			t.Fatalf("Run = %+v, %v; want committed", tx, err)
		}
		if got := ex.ReadOnlyCommitted - before; got != 1 {
			t.Errorf("ReadOnlyCommitted grew by %d, want 1", got)
		}
		// A reader at a site that already writes adds no participant.
		p = workload.Across("reader2", m, []tid.SiteID{1, 2}, 1, wire.TwoPhase)
		p.Read = &committed.Writes[1]
		if tx, err := ex.Run(p); err != nil || tx.Outcome != oracle.Committed {
			t.Fatalf("Run = %+v, %v; want committed", tx, err)
		}
		if got := ex.ReadOnlyCommitted - before; got != 1 {
			t.Errorf("ReadOnlyCommitted grew by %d after a reader at a writing site, want still 1", got)
		}
	})
}
