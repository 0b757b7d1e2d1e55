// Package camelot is the public face of this reproduction of the
// Camelot distributed transaction facility, as studied in "Analysis
// of Transaction Management Performance" (Duchamp, SOSP 1989).
//
// A Cluster connects Nodes (sites); each Node runs the four Camelot
// processes — transaction manager, communication manager, disk
// manager (the log), and recovery — plus any number of data servers.
// Applications begin transactions at a node, operate on servers by
// name anywhere in the cluster, and commit with either two-phase
// commit (with or without the delayed-commit optimization) or the
// non-blocking three-phase protocol:
//
//	cluster := camelot.NewCluster(rt.Real(), camelot.DefaultConfig())
//	n1 := cluster.AddNode(1)
//	n1.AddServer("bank")
//	tx, _ := n1.Begin()
//	tx.Write("bank", "alice", []byte("100"))
//	err := tx.Commit()
//
// For deterministic experiments, pass a sim.Kernel instead of
// rt.Real() and drive it with Run: all of the paper's latency and
// throughput studies in this repository run that way.
package camelot

import (
	"errors"
	"fmt"
	"time"

	"camelot/internal/commman"
	"camelot/internal/core"
	"camelot/internal/diskman"
	"camelot/internal/params"
	"camelot/internal/rt"
	"camelot/internal/server"
	"camelot/internal/shardmap"
	"camelot/internal/tid"
	"camelot/internal/trace"
	"camelot/internal/transport"
	"camelot/internal/wal"
	"camelot/internal/wire"
)

// Re-exported identifier types.
type (
	// SiteID names a site.
	SiteID = tid.SiteID
	// TID identifies a transaction.
	TID = tid.TID
)

// Errors surfaced by the public API.
var (
	// ErrAborted reports that commit ended in abort.
	ErrAborted = core.ErrAborted
	// ErrCrashed reports an operation on a crashed node.
	ErrCrashed = errors.New("camelot: node is crashed")
	// ErrNoShard reports a keyspace operation on a key no shard map
	// entry covers; re-exported from the data tier so clients classify
	// routing rejections with errors.Is.
	ErrNoShard = server.ErrNoShard
	// ErrWrongSite reports a keyspace operation routed to a site that
	// does not host the key's home shard.
	ErrWrongSite = server.ErrWrongSite
)

// Options selects the commitment protocol per transaction; see
// core.Options for field meanings.
type Options = core.Options

// Protocol re-exports the commit-protocol enum Options.Protocol takes.
type Protocol = wire.Protocol

// Commit protocols; the zero Options means TwoPhase.
const (
	TwoPhase    = wire.TwoPhase
	NonBlocking = wire.NonBlocking
	Paxos       = wire.Paxos
)

// Config tunes a cluster. NewCluster takes it whole, and every node
// AddNode builds is configured from it; nothing reconfigures a cluster
// or a node afterwards (the network's fault switches aside).
type Config struct {
	// Params is the primitive cost model; params.Paper() reproduces
	// the paper's testbed, params.Fast() is for functional tests.
	Params params.Params
	// Threads is the transaction-manager pool size per node.
	Threads int
	// GroupCommit enables log batching (§3.5).
	GroupCommit bool
	// LogFlushInterval bounds how long lazily written records stay
	// volatile.
	LogFlushInterval time.Duration
	// LockTimeout bounds data-server lock waits.
	LockTimeout time.Duration
	// RetryInterval, InquireInterval, PromotionTimeout, and
	// AckFlushInterval tune the transaction manager's timers.
	// Retransmits and inquiries back off to at most 8× RetryInterval
	// under persistent faults (see core.Config.RetryBackoffCap).
	RetryInterval    time.Duration
	InquireInterval  time.Duration
	PromotionTimeout time.Duration
	AckFlushInterval time.Duration
	// RPCTimeout bounds remote operation calls.
	RPCTimeout time.Duration
	// LossRate injects datagram loss for fault experiments.
	LossRate float64
	// Trace turns on the cluster collector's event timeline, from
	// which its per-family budgets and phase latencies are read; read
	// them back through Cluster.Trace. The per-site counters, lock
	// waits included, are always on. Off by default: without the
	// timeline a hook is one atomic add.
	Trace bool
	// WrapStore, if non-nil, wraps each new node's stable log store.
	// The chaos explorer uses it to interpose a fault-injecting store
	// that tears or corrupts the k-th log write of a schedule.
	WrapStore func(site SiteID, s wal.Store) wal.Store
	// ShardMap, if non-nil, is the deployment's shard map: AddNode
	// gives each node the shard servers the map homes there, and the
	// keyspace API (Tx.WriteKey, Tx.ReadKey) routes by key through it,
	// as RealConfig.ShardMap does for a real node. Nil clusters are
	// unsharded; their servers are added by name.
	ShardMap *shardmap.Map
}

// DefaultConfig returns a cluster configuration with the paper's
// latency model, group commit on, and five transaction-manager
// threads per node.
func DefaultConfig() Config {
	return Config{
		Params:           params.Paper(),
		Threads:          5,
		GroupCommit:      true,
		LogFlushInterval: 100 * time.Millisecond,
		LockTimeout:      2 * time.Second,
		RetryInterval:    500 * time.Millisecond,
		InquireInterval:  time.Second,
		PromotionTimeout: time.Second,
		AckFlushInterval: 200 * time.Millisecond,
		RPCTimeout:       2 * time.Second,
	}
}

// Cluster is a set of Camelot sites sharing a network and a name
// service.
type Cluster struct {
	r     rt.Runtime
	cfg   Config
	net   *transport.Network
	names *commman.Names
	nodes map[SiteID]*Node
	tr    *trace.Collector
}

// NewCluster creates an empty cluster on the given runtime.
func NewCluster(r rt.Runtime, cfg Config) *Cluster {
	tr := trace.NewCounters()
	if cfg.Trace {
		tr = trace.New(r)
	}
	return &Cluster{
		r:   r,
		cfg: cfg,
		net: transport.NewNetwork(r, transport.Config{
			Latency:   cfg.Params.Datagram,
			SendCycle: cfg.Params.SendCycle,
			Jitter:    cfg.Params.Jitter,
			LossRate:  cfg.LossRate,
			Trace:     tr,
		}),
		names: commman.NewNames(r),
		nodes: make(map[SiteID]*Node),
		tr:    tr,
	}
}

// Trace returns the cluster's collector: every site's counters, and
// the event timeline when Config.Trace is on. The counters outlive a
// site's crash, so a recovered site's count goes on from where it was.
func (c *Cluster) Trace() *trace.Collector { return c.tr }

// Network exposes the transport for fault injection in tests and
// experiments.
func (c *Cluster) Network() *transport.Network { return c.net }

// AddNode creates and starts a site, with the shard servers
// Config.ShardMap homes there, if any. IDs must be nonzero and unique.
func (c *Cluster) AddNode(id SiteID) *Node {
	if id == 0 {
		panic("camelot: site id 0 is reserved")
	}
	if _, dup := c.nodes[id]; dup {
		panic(fmt.Sprintf("camelot: duplicate site id %d", id))
	}
	var store wal.Store = wal.NewMemStore()
	if c.cfg.WrapStore != nil {
		store = c.cfg.WrapStore(id, store)
	}
	n := &Node{site: site{id: id, tr: c.tr, store: store, pages: diskman.NewPageStore()}, cluster: c}
	n.start(nil)
	if m := c.cfg.ShardMap; m != nil {
		for _, sh := range m.ShardsAt(id) {
			n.AddServer(m.ServerOf(sh))
		}
	}
	c.nodes[id] = n
	return n
}

// Node returns the site with the given id, or nil.
func (c *Cluster) Node(id SiteID) *Node {
	return c.nodes[id]
}

// ShardMap returns the cluster's shard map, or nil when unsharded.
func (c *Cluster) ShardMap() *shardmap.Map { return c.cfg.ShardMap }

// Node is one Camelot site on the cluster's runtime and network.
type Node struct {
	site
	cluster *Cluster
	kernel  *rt.CPU
	comm    *commman.Manager
	crashed bool
}

// start builds the site's processes around the (persistent) store.
// keepServers carries server names across a recovery.
func (n *Node) start(keepServers []string) {
	c := n.cluster
	n.crashed = false
	n.kernel = rt.NewCPU(c.r)
	n.open(c.r, wal.Config{
		GroupCommit:   c.cfg.GroupCommit,
		ForceLatency:  c.cfg.Params.LogForce,
		FlushInterval: c.cfg.LogFlushInterval,
	}, core.Config{
		Threads:          c.cfg.Threads,
		Params:           c.cfg.Params,
		Kernel:           n.kernel,
		RetryInterval:    c.cfg.RetryInterval,
		InquireInterval:  c.cfg.InquireInterval,
		PromotionTimeout: c.cfg.PromotionTimeout,
		AckFlushInterval: c.cfg.AckFlushInterval,
	}, c.net)
	n.comm = commman.New(c.r, n.id, c.net, c.names, n.tm, c.cfg.Params, n.kernel, c.cfg.RPCTimeout)
	n.servers = make(map[string]*server.Server)
	for _, name := range keepServers {
		n.AddServer(name)
	}
	c.net.Register(n.id, func(d transport.Datagram) {
		switch p := d.Payload.(type) {
		case *wire.Msg:
			n.tm.Deliver(p)
		case *commman.Request:
			n.comm.HandleRequest(p)
		case *commman.Response:
			n.comm.HandleResponse(p)
		}
	})
}

// Log exposes the site log (for statistics).
func (n *Node) Log() *wal.Log { return n.log }

// Comm exposes the communication manager (for statistics and the RPC
// breakdown experiment).
func (n *Node) Comm() *commman.Manager { return n.comm }

// AddServer creates a data server on this node, reachable cluster-wide
// by name.
func (n *Node) AddServer(name string) *server.Server {
	s := server.New(n.cluster.r, name, n.tm, n.log, server.Config{
		LockTimeout: n.cluster.cfg.LockTimeout,
		Params:      n.cluster.cfg.Params,
		Kernel:      n.kernel,
	})
	n.servers[name] = s
	n.comm.RegisterServer(s)
	return s
}

// Begin starts a top-level transaction coordinated by this node
// (Figure 1 step 2).
func (n *Node) Begin() (*Tx, error) {
	if n.crashed {
		return nil, ErrCrashed
	}
	t, err := n.tm.Begin()
	if err != nil {
		return nil, err
	}
	return &Tx{node: n, id: t}, nil
}

// Crash stops the node abruptly: volatile state (buffered log
// records, lock tables, in-memory data) is lost; the stable store
// survives for Recover.
func (n *Node) Crash() {
	if n.crashed {
		return
	}
	n.crashed = true
	n.cluster.tr.Crash(n.id)
	n.cluster.net.SetDown(n.id, true)
	n.stop()
}

// Recover restarts a crashed node: the recovery process replays the
// log, reinstalls server state, re-acquires in-doubt locks, and
// resumes unresolved commitments. If the log is unreadable — mid-log
// corruption rather than a clean torn tail — recovery refuses to
// guess: the node stays crashed and the error says why.
func (n *Node) Recover() error {
	if !n.crashed {
		return nil
	}
	// Sorted so servers restart in the same order every replay.
	n.start(n.ServerNames())
	if err := n.recover(); err != nil {
		// Fail stop: a site must not serve traffic from a log it
		// cannot trust.
		n.crashed = true
		n.stop()
		n.cluster.net.SetDown(n.id, true)
		return err
	}
	n.cluster.tr.Recover(n.id)
	n.cluster.net.SetDown(n.id, false)
	return nil
}

// Crashed reports whether the node is down.
func (n *Node) Crashed() bool { return n.crashed }

// Checkpoint runs the disk manager's checkpoint: the durable log is
// materialized into the page image and the absorbed prefix truncated,
// bounding how much history the next recovery replays. It returns the
// number of log records truncated.
func (n *Node) Checkpoint() (int, error) {
	if n.crashed {
		return 0, ErrCrashed
	}
	cut, err := diskman.Checkpoint(n.id, n.log, n.pages)
	if err != nil {
		return cut, err
	}
	n.cluster.tr.Checkpoint(n.id, cut)
	// The image now remembers every absorbed outcome durably; drop
	// them from the TM's resolved memory, which otherwise grows
	// without bound (Stats.ResolvedRetained measures what stays).
	// Inquiries for truncated families fall through to the PageStore
	// backstop site.open installed.
	absorbed := n.pages.Absorbed()
	n.tm.TruncateResolved(&absorbed)
	return cut, nil
}
