// Package shardmap partitions the keyspace of a Camelot deployment
// into shards and assigns each shard a home site. The map is the
// data tier's routing artifact: clients hash a key to its shard,
// route the operation to the shard's home site, and derive a
// transaction's commit participant set from the home sites of the
// shards it touched.
//
// Two properties are load-bearing and pinned by tests:
//
//   - Determinism. ShardOf is a pure function of the key bytes
//     (FNV-1a), and New builds the same placement from the same
//     inputs in every process, so ctl drivers, camelot-node daemons,
//     and camelot-cluster agree on where every key lives without
//     exchanging the map — and when they do exchange it (the control
//     plane's shardmap op), byte-identical serialization makes
//     agreement checkable with bytes.Equal.
//
//   - Reduction. The one-shard Default map places the whole keyspace
//     on a single site under the pre-sharding server name, so a
//     deployment that never asks for shards behaves exactly as the
//     unsharded code did — same WAL record server names, same
//     routing, same goldens.
//
// The map is versioned (Version plus the shardmap/v1 schema tag) so a
// follow-on can introduce online reconfiguration in the style of
// Bravo et al.'s "Reconfigurable Atomic Transaction Commit": a new
// placement is a new Version of the same artifact, not a new wire
// format.
package shardmap

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"

	"camelot/internal/tid"
)

// Schema identifies the serialized form.
const Schema = "shardmap/v1"

// LegacyServer is the data-server name of the pre-sharding
// deployments; the one-shard map keeps it so ShardCount=1 reduces to
// the old behaviour byte-for-byte (WAL update records name their
// server).
const LegacyServer = "store"

// ShardID names one shard; shards are numbered 0..Shards-1.
type ShardID uint32

// Map is a versioned partitioning of the keyspace: key → shard by
// deterministic hash, shard → home site by the placement table.
type Map struct {
	// Version counts reconfigurations; a deployment's live map is the
	// highest version every member agrees on.
	Version uint32
	// Shards is the shard count (ShardCount); at least 1.
	Shards uint32
	// Placement maps each shard to its home site. Entry s is shard
	// s's home; site 0 marks an unplaced shard, whose keys no site
	// covers (operations on them are rejected loudly, never routed).
	Placement []tid.SiteID
}

// New builds version v of a map spreading shards round-robin over the
// given sites, in the order given. Every caller that passes the same
// arguments gets an identical map — the property that lets each
// camelot-node build its own copy from flags and still agree with the
// driver's.
func New(v uint32, shards int, sites []tid.SiteID) (*Map, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shardmap: shard count %d, want >= 1", shards)
	}
	if len(sites) == 0 {
		return nil, fmt.Errorf("shardmap: no sites to place %d shards on", shards)
	}
	for _, s := range sites {
		if s == 0 {
			return nil, fmt.Errorf("shardmap: site id 0 is reserved")
		}
	}
	m := &Map{Version: v, Shards: uint32(shards), Placement: make([]tid.SiteID, shards)}
	for i := 0; i < shards; i++ {
		m.Placement[i] = sites[i%len(sites)]
	}
	return m, nil
}

// Default returns the one-shard map that reproduces the pre-sharding
// data tier: every key homes at site, served by the legacy "store"
// server.
func Default(site tid.SiteID) *Map {
	return &Map{Version: 1, Shards: 1, Placement: []tid.SiteID{site}}
}

// FNV-1a 64-bit parameters (FNV is the standard choice for a
// deterministic, dependency-free string hash; the distribution tests
// pin that it spreads the workload's key shapes acceptably).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// ShardOf hashes key to its shard: FNV-1a over the key bytes, modulo
// the shard count. Pure function of (key, Shards) — identical in
// every process, every run.
func (m *Map) ShardOf(key string) ShardID {
	h := uint64(fnvOffset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime
	}
	return ShardID(h % uint64(m.Shards))
}

// Home returns shard s's home site, or 0 if s is unplaced or out of
// range.
func (m *Map) Home(s ShardID) tid.SiteID {
	if int(s) >= len(m.Placement) {
		return 0
	}
	return m.Placement[s]
}

// SiteOf returns the home site of key's shard; 0 means no site
// covers the key (an unplaced shard).
func (m *Map) SiteOf(key string) tid.SiteID {
	return m.Home(m.ShardOf(key))
}

// KeyAt finds a key under prefix whose shard homes at site: the first
// of "prefix.0", "prefix.1", … to hash there. A pure function of
// (map, prefix, site), so every driver that plans a write for a site
// names the same key on every run. A site the map places no shard on
// has no such key; that is an error after a bounded search, never a
// spin.
func (m *Map) KeyAt(prefix string, site tid.SiteID) (string, error) {
	for c := 0; c < 4096; c++ {
		k := prefix + "." + strconv.Itoa(c)
		if m.SiteOf(k) == site {
			return k, nil
		}
	}
	return "", fmt.Errorf("shardmap: no key under %q homes at site %d (no shard placed there?)", prefix, site)
}

// ServerOf names shard s's data server. A one-shard map keeps the
// legacy name so existing WALs, oracles, and goldens read unchanged;
// larger maps use shard-scoped names.
func (m *Map) ServerOf(s ShardID) string {
	if m.Shards == 1 {
		return LegacyServer
	}
	return fmt.Sprintf("shard%d", uint32(s))
}

// ServerFor names the data server for key's shard.
func (m *Map) ServerFor(key string) string {
	return m.ServerOf(m.ShardOf(key))
}

// ShardsAt lists the shards homed at site, in ascending shard order.
func (m *Map) ShardsAt(site tid.SiteID) []ShardID {
	var out []ShardID
	for i, home := range m.Placement {
		if home == site && site != 0 {
			out = append(out, ShardID(i))
		}
	}
	return out
}

// Sites lists the distinct placed home sites in ascending order.
func (m *Map) Sites() []tid.SiteID {
	var out []tid.SiteID
	for _, home := range m.Placement {
		if home == 0 {
			continue
		}
		dup := false
		for _, s := range out {
			dup = dup || s == home
		}
		if !dup {
			out = append(out, home)
		}
	}
	for i := 1; i < len(out); i++ { // insertion sort; site counts are small
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// wireMap is the serialized form; field order fixes the byte layout.
type wireMap struct {
	Schema    string   `json:"schema"`
	Version   uint32   `json:"version"`
	Shards    uint32   `json:"shards"`
	Placement []uint32 `json:"placement"`
}

// Marshal serializes the map canonically: same map, same bytes, in
// every process. The form is one line of shardmap/v1 JSON with a
// trailing newline.
func (m *Map) Marshal() ([]byte, error) {
	if m.Shards < 1 || int(m.Shards) != len(m.Placement) {
		return nil, fmt.Errorf("shardmap: malformed map: %d shards, %d placement entries",
			m.Shards, len(m.Placement))
	}
	w := wireMap{Schema: Schema, Version: m.Version, Shards: m.Shards,
		Placement: make([]uint32, len(m.Placement))}
	for i, s := range m.Placement {
		w.Placement[i] = uint32(s)
	}
	b, err := json.Marshal(&w)
	if err != nil {
		return nil, fmt.Errorf("shardmap: marshal: %w", err)
	}
	return append(b, '\n'), nil
}

// Unmarshal parses a serialized map strictly: unknown fields and
// schema mismatches are errors, so disagreeing deployments fail
// loudly instead of silently routing to different homes.
func Unmarshal(b []byte) (*Map, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var w wireMap
	if err := dec.Decode(&w); err != nil {
		return nil, fmt.Errorf("shardmap: unmarshal: %w", err)
	}
	if w.Schema != Schema {
		return nil, fmt.Errorf("shardmap: schema %q, want %q", w.Schema, Schema)
	}
	if w.Shards < 1 || int(w.Shards) != len(w.Placement) {
		return nil, fmt.Errorf("shardmap: malformed map: %d shards, %d placement entries",
			w.Shards, len(w.Placement))
	}
	m := &Map{Version: w.Version, Shards: w.Shards, Placement: make([]tid.SiteID, len(w.Placement))}
	for i, s := range w.Placement {
		m.Placement[i] = tid.SiteID(s)
	}
	return m, nil
}

// Equal reports whether two maps route identically (same version,
// shard count, and placement).
func (m *Map) Equal(o *Map) bool {
	if o == nil || m.Version != o.Version || m.Shards != o.Shards ||
		len(m.Placement) != len(o.Placement) {
		return false
	}
	for i := range m.Placement {
		if m.Placement[i] != o.Placement[i] {
			return false
		}
	}
	return true
}
