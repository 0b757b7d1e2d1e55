package server

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"camelot/internal/shardmap"
	"camelot/internal/sim"
	"camelot/internal/tid"
	"camelot/internal/wal"
)

// shardFixture is a Set over a 4-shard, 2-site map; the fixture's set
// is site 1's half of the keyspace.
type shardFixture struct {
	k   *sim.Kernel
	set *Set
	m   *shardmap.Map
	tm  *fakeJoiner
}

func newShardFixture(t *testing.T) *shardFixture {
	t.Helper()
	m, err := shardmap.New(1, 4, []tid.SiteID{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	k := sim.New(1)
	f := &shardFixture{k: k, m: m, tm: &fakeJoiner{}}
	log := wal.Open(k, wal.NewMemStore(), wal.Config{ForceLatency: time.Millisecond})
	f.set = NewSet(k, 1, m, f.tm, log, Config{LockTimeout: 100 * time.Millisecond})
	return f
}

func (f *shardFixture) run(t *testing.T, fn func()) {
	t.Helper()
	f.k.Go("test", func() {
		fn()
		f.k.Stop()
	})
	f.k.RunUntil(time.Minute)
	if msg := f.k.Deadlocked(); msg != "" {
		t.Fatal(msg)
	}
}

// shard returns the server hosting shard sh at the fixture's site, or
// nil, as the site's recovery process would find it.
func (f *shardFixture) shard(sh shardmap.ShardID) *Server {
	return f.set.Servers()[f.m.ServerOf(sh)]
}

// localKey returns a key homed at site under f.m, searching a
// deterministic candidate sequence.
func localKey(t *testing.T, m *shardmap.Map, site tid.SiteID, tag string) string {
	t.Helper()
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("%s.%d", tag, i)
		if m.SiteOf(k) == site {
			return k
		}
	}
	t.Fatalf("no key homed at site %d in 1000 candidates", site)
	return ""
}

func TestSetCreatesAssignedShards(t *testing.T) {
	f := newShardFixture(t)
	// 4 shards round-robin over sites {1,2}: shards 0,2 at site 1.
	srvs := f.set.Servers()
	if len(srvs) != 2 || srvs["shard0"] == nil || srvs["shard2"] == nil || srvs["shard0"] == srvs["shard2"] {
		t.Fatalf("Servers() = %v, want two servers, shard0 and shard2", srvs)
	}
	for sh, name := range map[shardmap.ShardID]string{0: "shard0", 2: "shard2"} {
		if got := f.m.ServerOf(sh); got != name {
			t.Errorf("ServerOf(%d) = %q, want %q", sh, got, name)
		}
		if srvs[name].Name() != name {
			t.Errorf("server %q calls itself %q", name, srvs[name].Name())
		}
	}
}

func TestSetRoutesByKey(t *testing.T) {
	f := newShardFixture(t)
	f.run(t, func() {
		key := localKey(t, f.m, 1, "w")
		tx := top(1)
		if err := f.set.Write(tx, nil, key, []byte("v")); err != nil {
			t.Fatalf("Write(%q): %v", key, err)
		}
		got, err := f.set.Read(tx, nil, key)
		if err != nil || !bytes.Equal(got, []byte("v")) {
			t.Fatalf("Read = %q, %v", got, err)
		}
		// The write landed on the key's own shard server, not a sibling.
		sh := f.m.ShardOf(key)
		if _, ok := f.shard(sh).Peek(key); ok {
			t.Log("uncommitted value visible via Peek (in-place update); expected")
		}
		for _, other := range []shardmap.ShardID{0, 2} {
			if other == sh {
				continue
			}
			if _, ok := f.shard(other).Peek(key); ok {
				t.Errorf("key %q leaked onto shard %d", key, other)
			}
		}
	})
}

func TestSetRejectsWrongSite(t *testing.T) {
	f := newShardFixture(t)
	f.run(t, func() {
		key := localKey(t, f.m, 2, "w") // homes at site 2; the set is site 1's
		err := f.set.Write(top(1), nil, key, []byte("v"))
		if !errors.Is(err, ErrWrongSite) {
			t.Fatalf("Write(foreign key) = %v, want ErrWrongSite", err)
		}
		if _, err := f.set.Read(top(1), nil, key); !errors.Is(err, ErrWrongSite) {
			t.Fatalf("Read(foreign key) = %v, want ErrWrongSite", err)
		}
		if _, _, err := f.set.Peek(key); !errors.Is(err, ErrWrongSite) {
			t.Fatalf("Peek(foreign key) = %v, want ErrWrongSite", err)
		}
	})
}

func TestSetRejectsUnplacedShard(t *testing.T) {
	// A hand-built map with two unplaced shards: keys hashing there are
	// covered by no site, and the set must say so with the typed error.
	m := &shardmap.Map{Version: 1, Shards: 4, Placement: []tid.SiteID{1, 0, 1, 0}}
	k := sim.New(1)
	log := wal.Open(k, wal.NewMemStore(), wal.Config{ForceLatency: time.Millisecond})
	set := NewSet(k, 1, m, &fakeJoiner{}, log, Config{LockTimeout: 100 * time.Millisecond})

	var uncovered string
	for i := 0; i < 1000 && uncovered == ""; i++ {
		cand := fmt.Sprintf("u.%d", i)
		if m.SiteOf(cand) == 0 {
			uncovered = cand
		}
	}
	if uncovered == "" {
		t.Fatal("no key hashed to an unplaced shard in 1000 candidates")
	}

	k.Go("test", func() {
		if err := set.Write(top(1), nil, uncovered, []byte("v")); !errors.Is(err, ErrNoShard) {
			t.Errorf("Write(uncovered key) = %v, want ErrNoShard", err)
		}
		if _, _, err := set.Peek(uncovered); !errors.Is(err, ErrNoShard) {
			t.Errorf("Peek(uncovered key) = %v, want ErrNoShard", err)
		}
		k.Stop()
	})
	k.RunUntil(time.Minute)
	if msg := k.Deadlocked(); msg != "" {
		t.Fatal(msg)
	}
}

// TestSetShardsHaveIndependentLockManagers pins the point of
// shard-scoped servers: a transaction stuck behind a lock on one
// shard does not serialize against traffic on a sibling shard's lock
// manager.
func TestSetShardsHaveIndependentLockManagers(t *testing.T) {
	f := newShardFixture(t)
	f.run(t, func() {
		k0 := localKey(t, f.m, 1, "a")
		// Find a second local key on the other local shard.
		var k1 string
		for i := 0; i < 1000; i++ {
			cand := fmt.Sprintf("b.%d", i)
			if f.m.SiteOf(cand) == 1 && f.m.ShardOf(cand) != f.m.ShardOf(k0) {
				k1 = cand
				break
			}
		}
		if k1 == "" {
			t.Fatal("no key found on the sibling shard")
		}
		t1, t2 := top(1), top(2)
		if err := f.set.Write(t1, nil, k0, []byte("v")); err != nil {
			t.Fatal(err)
		}
		// t2 writes the sibling shard while t1 still holds its lock.
		if err := f.set.Write(t2, nil, k1, []byte("v")); err != nil {
			t.Fatalf("sibling-shard write blocked: %v", err)
		}
		if f.shard(f.m.ShardOf(k0)).Locks() == f.shard(f.m.ShardOf(k1)).Locks() {
			t.Fatal("shards share one lock manager")
		}
	})
}
