package camelot

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"camelot/internal/server"
	"camelot/internal/shardmap"
	"camelot/internal/sim"
	"camelot/internal/wire"
)

// runShardedSim executes fn in a deterministic simulation of a
// sharded three-site cluster: 4 shards round-robin over sites 1–3,
// shard servers instantiated from the map.
func runShardedSim(t *testing.T, fn func(k *sim.Kernel, c *Cluster, m *shardmap.Map)) {
	t.Helper()
	m, err := shardmap.New(1, 4, []SiteID{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	k := sim.New(1)
	c := NewCluster(k, fastConfig())
	c.SetShardMap(m)
	for id := SiteID(1); id <= 3; id++ {
		c.AddNode(id).AddShardServers()
	}
	k.Go("test", func() {
		fn(k, c, m)
		k.Stop()
	})
	k.RunUntil(10 * time.Minute)
	if msg := k.Deadlocked(); msg != "" {
		t.Fatal(msg)
	}
}

// crossShardKeys returns keys under prefix homed at distinct given
// sites, by deterministic candidate search.
func crossShardKeys(t *testing.T, m *shardmap.Map, prefix string, sites ...SiteID) []string {
	t.Helper()
	out := make([]string, len(sites))
	for si, want := range sites {
		found := false
		for i := 0; i < 1000 && !found; i++ {
			k := fmt.Sprintf("%s.x%d.%d", prefix, si, i)
			if m.SiteOf(k) == want {
				out[si] = k
				found = true
			}
		}
		if !found {
			t.Fatalf("no key under %q homed at site %d", prefix, want)
		}
	}
	return out
}

// TestShardedCrossShardCommit commits one transaction touching shards
// on all three sites, under each commitment protocol, and verifies
// the effects landed on exactly the key's own shard server at the
// key's own home site.
func TestShardedCrossShardCommit(t *testing.T) {
	runShardedSim(t, func(k *sim.Kernel, c *Cluster, m *shardmap.Map) {
		for _, proto := range wire.Protocols() {
			name := proto.String()
			keys := crossShardKeys(t, m, name, 1, 2, 3)
			coord := c.Node(m.SiteOf(keys[0]))
			tx, err := coord.Begin()
			if err != nil {
				t.Fatalf("[%s] Begin: %v", name, err)
			}
			for _, key := range keys {
				if err := tx.WriteKey(key, []byte(name)); err != nil {
					t.Fatalf("[%s] WriteKey(%q): %v", name, key, err)
				}
			}
			if err := tx.CommitWith(Options{Protocol: proto, PaxosF: 1}); err != nil {
				t.Fatalf("[%s] Commit: %v", name, err)
			}
			for _, key := range keys {
				home := c.Node(m.SiteOf(key))
				v, ok := home.Server(m.ServerFor(key)).Peek(key)
				if !ok || !bytes.Equal(v, []byte(name)) {
					t.Fatalf("[%s] after commit, %q = %q (%v) at site %d",
						name, key, v, ok, home.ID())
				}
			}
		}
	})
}

// TestShardedAbortUndoesAllShards aborts a cross-shard transaction
// and verifies the undo reached every touched shard: pre-images
// restored at overwritten keys, blind writes absent.
func TestShardedAbortUndoesAllShards(t *testing.T) {
	runShardedSim(t, func(k *sim.Kernel, c *Cluster, m *shardmap.Map) {
		keys := crossShardKeys(t, m, "undo", 1, 2, 3)
		// Seed keys[0] so the abort must restore a pre-image, not just
		// drop a blind write.
		coord := c.Node(m.SiteOf(keys[0]))
		seedTx, err := coord.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := seedTx.WriteKey(keys[0], []byte("old")); err != nil {
			t.Fatal(err)
		}
		if err := seedTx.Commit(); err != nil {
			t.Fatal(err)
		}

		tx, err := coord.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range keys {
			if err := tx.WriteKey(key, []byte("new")); err != nil {
				t.Fatalf("WriteKey(%q): %v", key, err)
			}
		}
		if err := tx.Abort(); err != nil {
			t.Fatalf("Abort: %v", err)
		}
		// Remote undo is asynchronous (presumed abort): give the abort
		// datagrams time to land.
		k.Sleep(500 * time.Millisecond)
		v, ok := coord.Server(m.ServerFor(keys[0])).Peek(keys[0])
		if !ok || !bytes.Equal(v, []byte("old")) {
			t.Fatalf("after abort, %q = %q (%v), want pre-image \"old\"", keys[0], v, ok)
		}
		for _, key := range keys[1:] {
			home := c.Node(m.SiteOf(key))
			if v, ok := home.Server(m.ServerFor(key)).Peek(key); ok {
				t.Fatalf("after abort, blind write %q = %q survived at site %d", key, v, home.ID())
			}
		}
	})
}

// TestShardedReadKeyRoutes reads back a committed value through the
// keyspace API from a node that does not host the key's shard.
func TestShardedReadKeyRoutes(t *testing.T) {
	runShardedSim(t, func(k *sim.Kernel, c *Cluster, m *shardmap.Map) {
		keys := crossShardKeys(t, m, "read", 2)
		writer := c.Node(2)
		tx, err := writer.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.WriteKey(keys[0], []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		// Site 1 hosts a different shard; its read must route to site 2.
		reader := c.Node(1)
		rtx, err := reader.Begin()
		if err != nil {
			t.Fatal(err)
		}
		got, err := rtx.ReadKey(keys[0])
		if err != nil || !bytes.Equal(got, []byte("v")) {
			t.Fatalf("ReadKey(%q) from remote site = %q, %v", keys[0], got, err)
		}
		if err := rtx.Commit(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestShardedUncoveredKeyRejected pins the typed rejection: a key on
// an unplaced shard fails fast with server.ErrNoShard, before any
// lookup or network traffic.
func TestShardedUncoveredKeyRejected(t *testing.T) {
	// A map with holes: shards 1 and 3 unplaced.
	m := &shardmap.Map{Version: 1, Shards: 4, Placement: []SiteID{1, 0, 2, 0}}
	k := sim.New(1)
	c := NewCluster(k, fastConfig())
	c.SetShardMap(m)
	for id := SiteID(1); id <= 2; id++ {
		c.AddNode(id).AddShardServers()
	}
	var uncovered string
	for i := 0; i < 1000 && uncovered == ""; i++ {
		cand := fmt.Sprintf("hole.%d", i)
		if m.SiteOf(cand) == 0 {
			uncovered = cand
		}
	}
	if uncovered == "" {
		t.Fatal("no key hashed to an unplaced shard in 1000 candidates")
	}
	k.Go("test", func() {
		tx, err := c.Node(1).Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.WriteKey(uncovered, []byte("v")); !errors.Is(err, server.ErrNoShard) {
			t.Errorf("WriteKey(uncovered) = %v, want ErrNoShard", err)
		}
		if _, err := tx.ReadKey(uncovered); !errors.Is(err, server.ErrNoShard) {
			t.Errorf("ReadKey(uncovered) = %v, want ErrNoShard", err)
		}
		if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
		k.Stop()
	})
	k.RunUntil(10 * time.Minute)
	if msg := k.Deadlocked(); msg != "" {
		t.Fatal(msg)
	}
}

// TestShardedCrashRecoverCrossShard commits a cross-shard transaction,
// crashes every site, recovers, and verifies the effects survived on
// all shards — the sim-level rehearsal of the cluster driver's
// durability bounce.
func TestShardedCrashRecoverCrossShard(t *testing.T) {
	runShardedSim(t, func(k *sim.Kernel, c *Cluster, m *shardmap.Map) {
		keys := crossShardKeys(t, m, "dur", 1, 2, 3)
		coord := c.Node(m.SiteOf(keys[0]))
		tx, err := coord.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range keys {
			if err := tx.WriteKey(key, []byte("durable")); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.CommitWith(Options{ForceSubCommit: true}); err != nil {
			t.Fatal(err)
		}
		for id := SiteID(1); id <= 3; id++ {
			c.Node(id).Crash()
		}
		for id := SiteID(1); id <= 3; id++ {
			if err := c.Node(id).Recover(); err != nil {
				t.Fatalf("Recover(%d): %v", id, err)
			}
		}
		for _, key := range keys {
			home := c.Node(m.SiteOf(key))
			v, ok := home.Server(m.ServerFor(key)).Peek(key)
			if !ok || !bytes.Equal(v, []byte("durable")) {
				t.Fatalf("after bounce, %q = %q (%v) at site %d", key, v, ok, home.ID())
			}
		}
	})
}
