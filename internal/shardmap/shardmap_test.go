package shardmap

import (
	"bytes"
	"fmt"
	"testing"

	"camelot/internal/tid"
)

func mustNew(t *testing.T, v uint32, shards int, sites []tid.SiteID) *Map {
	t.Helper()
	m, err := New(v, shards, sites)
	if err != nil {
		t.Fatalf("New(%d, %d, %v): %v", v, shards, sites, err)
	}
	return m
}

func TestNewRoundRobinPlacement(t *testing.T) {
	m := mustNew(t, 1, 4, []tid.SiteID{1, 2, 3})
	want := []tid.SiteID{1, 2, 3, 1}
	for i, site := range want {
		if got := m.Home(ShardID(i)); got != site {
			t.Errorf("Home(%d) = %v, want %v", i, got, site)
		}
	}
	if got := m.Sites(); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("Sites() = %v, want [1 2 3]", got)
	}
	if got := m.ShardsAt(1); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Errorf("ShardsAt(1) = %v, want [0 3]", got)
	}
}

func TestNewRejectsBadInputs(t *testing.T) {
	if _, err := New(1, 0, []tid.SiteID{1}); err == nil {
		t.Error("New with 0 shards: want error")
	}
	if _, err := New(1, 2, nil); err == nil {
		t.Error("New with no sites: want error")
	}
	if _, err := New(1, 2, []tid.SiteID{1, 0}); err == nil {
		t.Error("New with site 0: want error")
	}
}

// TestDefaultOneShardReducesToLegacyRouting pins the reduction the
// whole refactor leans on: the default one-shard map routes every key
// to the map's single site under the pre-sharding server name
// ("store"), exactly as the pre-refactor code — which had one data
// server named "store" per site and no routing at all — behaved.
func TestDefaultOneShardReducesToLegacyRouting(t *testing.T) {
	m := Default(7)
	if m.Shards != 1 || m.Version != 1 {
		t.Fatalf("Default = %+v, want 1 shard, version 1", m)
	}
	keys := []string{"", "a", "alice", "txn0000", "oracle-probe", "k1234", "hot0"}
	for i := 0; i < 100; i++ {
		keys = append(keys, fmt.Sprintf("t%04d.k%d", i, i%3))
	}
	for _, k := range keys {
		if got := m.SiteOf(k); got != 7 {
			t.Fatalf("SiteOf(%q) = %v, want 7", k, got)
		}
		if got := m.ServerFor(k); got != LegacyServer {
			t.Fatalf("ServerFor(%q) = %q, want %q", k, got, LegacyServer)
		}
		if got := m.ShardOf(k); got != 0 {
			t.Fatalf("ShardOf(%q) = %d, want 0", k, got)
		}
	}
}

// TestMarshalDeterministic pins byte-identical serialization: two
// independently built maps from the same inputs marshal to the same
// bytes (the property that lets every camelot-node build its own map
// from flags while the driver checks agreement with bytes.Equal), and
// the byte layout itself is pinned so a schema drift cannot sneak in.
func TestMarshalDeterministic(t *testing.T) {
	a := mustNew(t, 3, 4, []tid.SiteID{1, 2, 3})
	b := mustNew(t, 3, 4, []tid.SiteID{1, 2, 3})
	ab, err := a.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, bb) {
		t.Fatalf("same inputs, different bytes:\n%s\n%s", ab, bb)
	}
	const want = `{"schema":"shardmap/v1","version":3,"shards":4,"placement":[1,2,3,1]}` + "\n"
	if string(ab) != want {
		t.Fatalf("Marshal = %q, want pinned %q", ab, want)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	m := mustNew(t, 9, 16, []tid.SiteID{4, 2, 9})
	b, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatalf("round trip: got %+v, want %+v", got, m)
	}
}

func TestUnmarshalStrict(t *testing.T) {
	cases := []string{
		`{"schema":"shardmap/v2","version":1,"shards":1,"placement":[1]}`,
		`{"schema":"shardmap/v1","version":1,"shards":2,"placement":[1]}`,
		`{"schema":"shardmap/v1","version":1,"shards":0,"placement":[]}`,
		`{"schema":"shardmap/v1","version":1,"shards":1,"placement":[1],"extra":true}`,
	}
	for _, c := range cases {
		if _, err := Unmarshal([]byte(c)); err == nil {
			t.Errorf("Unmarshal(%s): want error", c)
		}
	}
}

// TestShardOfStable pins concrete hash routings so the hash function
// can never change silently: a changed ShardOf would re-home existing
// deployments' keys.
func TestShardOfStable(t *testing.T) {
	m := mustNew(t, 1, 8, []tid.SiteID{1, 2, 3, 4})
	pinned := map[string]ShardID{
		"":      5,
		"alice": 7,
		"k0000": 2,
		"hot3":  5,
	}
	for k, want := range pinned {
		if got := m.ShardOf(k); got != want {
			t.Errorf("ShardOf(%q) = %d, want %d (hash function changed?)", k, got, want)
		}
	}
}

func TestShardOfSpreads(t *testing.T) {
	m := mustNew(t, 1, 4, []tid.SiteID{1, 2, 3})
	counts := make([]int, m.Shards)
	const n = 4000
	for i := 0; i < n; i++ {
		counts[m.ShardOf(fmt.Sprintf("t%04d.k%d", i/3, i%3))]++
	}
	for s, c := range counts {
		if c < n/int(m.Shards)/2 || c > n/int(m.Shards)*2 {
			t.Errorf("shard %d holds %d of %d keys; hash is badly skewed", s, c, n)
		}
	}
}

// TestKeyAt pins the one "key homed at this site" search every driver
// shares: the key it returns really homes there, the search is a pure
// function of its inputs, and a site with no shard is an error after a
// bounded search rather than a spin.
func TestKeyAt(t *testing.T) {
	m := mustNew(t, 1, 4, []tid.SiteID{1, 2, 3})
	for _, site := range m.Sites() {
		k, err := m.KeyAt("t0007.x1", site)
		if err != nil {
			t.Fatalf("KeyAt(site %d): %v", site, err)
		}
		if got := m.SiteOf(k); got != site {
			t.Errorf("KeyAt(site %d) = %q, which homes at site %d", site, k, got)
		}
		if again, _ := m.KeyAt("t0007.x1", site); again != k {
			t.Errorf("KeyAt(site %d) not deterministic: %q then %q", site, k, again)
		}
	}
	// The candidate order is part of the contract: seeded workloads
	// name their keys through it.
	if k, _ := Default(1).KeyAt("p", 1); k != "p.0" {
		t.Errorf("one-shard KeyAt = %q, want the first candidate p.0", k)
	}
	if k, err := mustNew(t, 1, 1, []tid.SiteID{1}).KeyAt("p", 2); err == nil {
		t.Errorf("KeyAt for a site with no shard = %q, want an error", k)
	}
}

func TestServerNaming(t *testing.T) {
	m := mustNew(t, 1, 4, []tid.SiteID{1, 2})
	if got := m.ServerOf(3); got != "shard3" {
		t.Errorf("ServerOf(3) = %q, want shard3", got)
	}
	one := Default(1)
	if got := one.ServerOf(0); got != LegacyServer {
		t.Errorf("one-shard ServerOf(0) = %q, want %q", got, LegacyServer)
	}
}

func TestEqual(t *testing.T) {
	a := mustNew(t, 1, 4, []tid.SiteID{1, 2, 3})
	b := mustNew(t, 1, 4, []tid.SiteID{1, 2, 3})
	if !a.Equal(b) {
		t.Error("identical maps not Equal")
	}
	c := mustNew(t, 2, 4, []tid.SiteID{1, 2, 3})
	if a.Equal(c) {
		t.Error("different versions Equal")
	}
	d := mustNew(t, 1, 4, []tid.SiteID{2, 1, 3})
	if a.Equal(d) {
		t.Error("different placements Equal")
	}
}

// FuzzUnmarshal feeds arbitrary bytes to the shardmap/v1 parser, seeded
// with the canonical form of every layout the cluster drivers deploy
// (the package has no checked-in files). It must never panic, and a
// map it accepts must marshal and unmarshal to an equal map.
func FuzzUnmarshal(f *testing.F) {
	seeds := []*Map{Default(1)}
	for _, shards := range []int{1, 3, 4} {
		m, err := New(1, shards, []tid.SiteID{1, 2, 3})
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, m)
	}
	for _, m := range seeds {
		b, err := m.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		m, err := Unmarshal(in)
		if err != nil {
			return
		}
		b, err := m.Marshal()
		if err != nil {
			t.Fatalf("accepted map does not marshal: %v", err)
		}
		again, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("marshaled map refused: %v\n%s", err, b)
		}
		if !m.Equal(again) {
			t.Fatalf("round trip changed the map: %+v vs %+v", m, again)
		}
	})
}
