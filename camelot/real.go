package camelot

import (
	"fmt"
	"time"

	"camelot/internal/core"
	"camelot/internal/diskman"
	"camelot/internal/rt"
	"camelot/internal/server"
	"camelot/internal/shardmap"
	"camelot/internal/tid"
	"camelot/internal/trace"
	"camelot/internal/transport"
	"camelot/internal/wal"
	"camelot/internal/wire"
)

// RealConfig configures one real site: a transaction manager and data
// servers on the ordinary Go runtime, peers reached over UDP, and the
// log on a real file. Unlike the simulated Cluster there is no cost
// model — latency here is the actual machine's.
type RealConfig struct {
	// Site is this site's id; nonzero, unique across the deployment.
	Site SiteID
	// Listen is the UDP listen address, e.g. "127.0.0.1:0".
	Listen string
	// WALPath is the on-disk log file; created if absent, replayed by
	// Recover if not.
	WALPath string
	// ShardMap (required) decides the site's data tier: the site hosts
	// one data server per shard the map homes here (per-shard lock
	// managers and object tables, shared WAL), and WriteKey, ReadKey and
	// PeekKey route by key. Every site of a deployment must be given an
	// equal map.
	ShardMap *shardmap.Map
	// Threads is the transaction-manager pool size.
	Threads int
	// GroupCommit enables log batching.
	GroupCommit bool
	// LockTimeout bounds data-server lock waits.
	LockTimeout time.Duration
	// RetryInterval is the transaction manager's retry timer: how often
	// a coordinator re-sends and a prepared subordinate inquires. It
	// masks real datagram loss, so keep it well above the network's
	// round-trip time. It is also how long a delayed commit-ack is held
	// for a datagram to ride on: silence shorter than it is not loss.
	RetryInterval time.Duration
	// RetryBackoffCap bounds the exponential backoff retransmits and
	// inquiries grow into during a partition; zero means 8×
	// RetryInterval (see core.Config.RetryBackoffCap).
	RetryBackoffCap time.Duration
	// WrapStore, if non-nil, wraps the node's stable log store —
	// fault injection interposes here: camelot-node -wal-fail-append
	// installs a wal.FaultStore whose lost mode drops one device write.
	WrapStore func(s wal.Store) wal.Store
	// Logf, if non-nil, receives diagnostics (unmaskable transport
	// losses such as oversize messages).
	Logf func(format string, args ...any)
}

// DefaultRealConfig returns loopback-friendly settings for site id:
// short retry timers (loopback RTT is microseconds), group commit, and
// the one-shard map that homes the whole keyspace at this site — a
// lone node; a deployment installs its shared map instead.
func DefaultRealConfig(id SiteID) RealConfig {
	return RealConfig{
		Site:          id,
		Listen:        "127.0.0.1:0",
		ShardMap:      shardmap.Default(id),
		Threads:       5,
		GroupCommit:   true,
		LockTimeout:   2 * time.Second,
		RetryInterval: 50 * time.Millisecond,
	}
}

// The real runtime's fixed timers: how long the log flusher lets a
// lazily written record stay volatile, and how long a non-blocking
// subordinate waits for progress before promoting itself.
const (
	realFlushInterval    = 25 * time.Millisecond
	realPromotionTimeout = 200 * time.Millisecond
)

// RealNode is one Camelot site as a real process component: the same
// transaction manager, data servers, write-ahead log, and recovery
// process as a simulated Node, but on wall-clock time with a UDP
// transport and a file-backed log. cmd/camelot-node wraps one in a
// daemon; tests may also embed several in one process.
type RealNode struct {
	site // its collector keeps counters only, no timeline
	cfg  RealConfig
	peer *transport.UDPPeer
	file *wal.FileStore // under site.store, which may wrap it
	set  *server.Set    // site.servers is its shard servers by name
}

// StartRealNode opens (or creates) the WAL at cfg.WALPath, binds the
// UDP socket, and starts the site's processes. The caller must then
// call Recover — even on a fresh log, where it is a no-op — before
// serving traffic, and AddPeer for every other site as addresses
// become known.
func StartRealNode(cfg RealConfig) (*RealNode, error) {
	if cfg.Site == 0 {
		return nil, fmt.Errorf("camelot: site id 0 is reserved")
	}
	if cfg.ShardMap == nil {
		return nil, fmt.Errorf("camelot: site %d: RealConfig.ShardMap is required (DefaultRealConfig sets a one-site map)", cfg.Site)
	}
	r := rt.Real()
	file, err := wal.OpenFileStore(cfg.WALPath)
	if err != nil {
		return nil, fmt.Errorf("camelot: open wal: %w", err)
	}
	tr := trace.NewCounters()
	peer, err := transport.ListenUDP(cfg.Site, cfg.Listen, tr, cfg.Logf)
	if err != nil {
		file.Close() //nolint:errcheck // surfacing the bind error
		return nil, err
	}
	var store wal.Store = file
	if cfg.WrapStore != nil {
		store = cfg.WrapStore(store)
	}
	n := &RealNode{
		site: site{id: cfg.Site, tr: tr, store: store, pages: diskman.NewPageStore()},
		cfg:  cfg,
		peer: peer,
		file: file,
	}
	n.open(r, wal.Config{
		GroupCommit:   cfg.GroupCommit,
		FlushInterval: realFlushInterval,
	}, core.Config{
		Threads:          cfg.Threads,
		RetryInterval:    cfg.RetryInterval,
		InquireInterval:  cfg.RetryInterval,
		PromotionTimeout: realPromotionTimeout,
		AckFlushInterval: cfg.RetryInterval,
		// A subordinate's lazy commit record can sit two flusher ticks
		// (the flusher skips records younger than one interval) and its
		// ack one hold more; only after that is silence a sign of loss,
		// which RetryInterval then times as it does everywhere else.
		AckWait:         2*realFlushInterval + 2*cfg.RetryInterval,
		RetryBackoffCap: cfg.RetryBackoffCap,
	}, peer)
	// Shard servers must exist before Recover: the recovery process
	// installs replayed state into servers by name.
	n.set = server.NewSet(r, cfg.Site, cfg.ShardMap, n.tm, n.log, server.Config{
		LockTimeout: cfg.LockTimeout,
	})
	n.servers = n.set.Servers()
	peer.SetHandler(func(d transport.Datagram) {
		if msg, ok := d.Payload.(*wire.Msg); ok {
			n.tm.Deliver(msg)
		}
	})
	return n, nil
}

// Recover replays the on-disk log through the shared recovery process
// (the same code path a simulated Node recovers through): committed
// updates are redone into the servers, in-doubt updates reinstalled
// under locks, and unresolved commitments resumed. Call once at
// startup, before serving traffic.
func (n *RealNode) Recover() error { return n.recover() }

// Addr returns the bound UDP address, for exchanging with peers.
func (n *RealNode) Addr() string { return n.peer.Addr() }

// AddPeer registers (or replaces) the UDP address of another site.
func (n *RealNode) AddPeer(id SiteID, addr string) error {
	return n.peer.AddPeer(id, addr)
}

// Peer exposes the transport (for statistics).
func (n *RealNode) Peer() *transport.UDPPeer { return n.peer }

// Begin starts a top-level transaction coordinated by this site.
func (n *RealNode) Begin() (TID, error) { return n.tm.Begin() }

// AddSites declares remote participant sites to the coordinator; call
// at the coordinating site before Commit.
func (n *RealNode) AddSites(t TID, sites []SiteID) { n.tm.AddSites(t, sites) }

// Commit runs the commitment protocol selected by opts for t.
func (n *RealNode) Commit(t TID, opts Options) (wire.Outcome, error) {
	return n.tm.Commit(t, opts)
}

// Abort aborts t.
func (n *RealNode) Abort(t TID) { n.tm.Abort(t) }

// ShardMap returns the site's shard map.
func (n *RealNode) ShardMap() *shardmap.Map { return n.cfg.ShardMap }

// WriteKey routes key to its local shard server and writes it under
// transaction t, joining the server (and, transitively, this site's
// transaction manager) to the family. A distributed transaction is
// built by calling WriteKey at each key's home site for the same t,
// then AddSites + Commit at the coordinator. A key this site does not
// cover fails with ErrNoShard or ErrWrongSite.
func (n *RealNode) WriteKey(t TID, key string, val []byte) error {
	return n.set.Write(t, tid.TID{}, key, val)
}

// ReadKey routes key to its local shard server and reads it under t.
func (n *RealNode) ReadKey(t TID, key string) ([]byte, error) {
	return n.set.Read(t, tid.TID{}, key)
}

// PeekKey returns the committed value of key from its local shard
// server without a transaction (the oracle's presence check); the
// error is the routing verdict.
func (n *RealNode) PeekKey(key string) ([]byte, bool, error) {
	return n.set.Peek(key)
}

// Probe is the oracle's liveness check: begin a fresh transaction,
// write a key homed here through the ordinary routed path, abort. A
// leaked lock or a wedged manager turns it into an error. A site the
// map places no shard on has nothing to write and degrades to
// begin/abort.
func (n *RealNode) Probe() error {
	t, err := n.tm.Begin()
	if err != nil {
		return fmt.Errorf("cannot begin after quiesce: %v", err)
	}
	defer n.tm.Abort(t)
	if len(n.servers) == 0 {
		return nil
	}
	key, err := n.cfg.ShardMap.KeyAt("oracle-probe", n.id)
	if err != nil {
		return err
	}
	if err := n.WriteKey(t, key, []byte("x")); err != nil {
		return fmt.Errorf("probe write blocked (leaked lock?): %v", err)
	}
	return nil
}

// LogStats reports the write-ahead log's counters: records appended
// and device writes — blocks the store made durable, one write and one
// fsync each on the file WAL (group commit coalesces many appends into
// one). Performance reports charge the commit protocols by these — the
// paper's log-force budget, measured.
func (n *RealNode) LogStats() (appends, deviceWrites int) {
	sc := n.Counters()
	return sc.LogAppends, sc.DeviceWrites
}

// Counters returns a snapshot of the site's counters — log, datagrams,
// retries, outcomes and acks — the one ledger LogStats, Peer().Stats
// and TM().Stats are views over.
func (n *RealNode) Counters() trace.SiteCounters { return n.tr.Site(n.id) }

// LogErr reports the device error that fail-stopped the write-ahead
// log, or nil while the log is healthy.
func (n *RealNode) LogErr() error { return n.log.Err() }

// Close stops the site: transaction manager, log, and socket. The WAL
// file survives for the next incarnation's Recover.
func (n *RealNode) Close() error {
	n.stop()
	err := n.file.Close()
	if cerr := n.peer.Close(); err == nil {
		err = cerr
	}
	return err
}
