package server

import (
	"errors"
	"fmt"
	"maps"

	"camelot/internal/rt"
	"camelot/internal/shardmap"
	"camelot/internal/tid"
	"camelot/internal/wal"
)

// Keyspace-routing errors. Both are terminal for the operation, never
// retried: a key on an unplaced shard is covered by no site at all,
// and a key homed elsewhere must be routed there by the client — this
// site will never serve it.
var (
	// ErrNoShard reports an operation on a key whose shard has no home
	// site in the deployment's shard map.
	ErrNoShard = errors.New("server: key belongs to no placed shard")
	// ErrWrongSite reports an operation on a key whose home shard is
	// hosted at a different site.
	ErrWrongSite = errors.New("server: key's home shard is not hosted at this site")
)

// Set is one site's shard-scoped data tier: the shard servers the
// deployment's shard map assigns to this site. Each shard is an
// ordinary *Server — its own lock manager and object table — and all
// of a site's shards share the site's write-ahead log and transaction
// manager, so a multi-shard transaction at one site is still one
// participant in commitment.
type Set struct {
	site    tid.SiteID
	m       *shardmap.Map
	byShard map[shardmap.ShardID]*Server
	byName  map[string]*Server
}

// NewSet builds the shard servers assigned to site by m. The servers
// exist immediately — recovery installs state into them by name, so
// they must be created before the site's log is replayed.
func NewSet(r rt.Runtime, site tid.SiteID, m *shardmap.Map, tm Joiner, log *wal.Log, cfg Config) *Set {
	ss := &Set{
		site:    site,
		m:       m,
		byShard: make(map[shardmap.ShardID]*Server),
		byName:  make(map[string]*Server),
	}
	for _, sh := range m.ShardsAt(site) {
		name := m.ServerOf(sh)
		srv := New(r, name, tm, log, cfg)
		ss.byShard[sh] = srv
		ss.byName[name] = srv
	}
	return ss
}

// route finds the local shard server for key, or the typed routing
// error explaining why this site cannot serve it.
func (ss *Set) route(key string) (*Server, error) {
	sh := ss.m.ShardOf(key)
	home := ss.m.Home(sh)
	if home == 0 {
		return nil, fmt.Errorf("%w: key %q (shard %d of %d)", ErrNoShard, key, sh, ss.m.Shards)
	}
	if home != ss.site {
		return nil, fmt.Errorf("%w: key %q homes at %s (shard %d)", ErrWrongSite, key, home, sh)
	}
	return ss.byShard[sh], nil
}

// Write routes key to its local shard server and writes it under t.
func (ss *Set) Write(t tid.TID, anc []tid.TID, key string, val []byte) error {
	srv, err := ss.route(key)
	if err != nil {
		return err
	}
	return srv.Write(t, anc, key, val)
}

// Read routes key to its local shard server and reads it under t.
func (ss *Set) Read(t tid.TID, anc []tid.TID, key string) ([]byte, error) {
	srv, err := ss.route(key)
	if err != nil {
		return nil, err
	}
	return srv.Read(t, anc, key)
}

// Peek returns the committed value of key from its local shard
// server, without locking. The error is the routing verdict: a key
// this site does not cover is an error, not merely absent.
func (ss *Set) Peek(key string) ([]byte, bool, error) {
	srv, err := ss.route(key)
	if err != nil {
		return nil, false, err
	}
	v, ok := srv.Peek(key)
	return v, ok, nil
}

// Servers returns the site's shard servers keyed by server name — the
// map the recovery process installs state into.
func (ss *Set) Servers() map[string]*Server { return maps.Clone(ss.byName) }
