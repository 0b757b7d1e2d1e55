package camelot

import (
	"fmt"

	"camelot/internal/commman"
	"camelot/internal/rt"
	"camelot/internal/server"
	"camelot/internal/trace"
	"camelot/internal/wire"
)

// Tx is a handle on one transaction (top-level or nested). Operations
// name servers; the name service locates them, local calls go
// directly, and remote calls travel the communication-manager path
// whose responses carry the site lists the commit protocols need.
type Tx struct {
	node *Node
	id   TID
	anc  []TID // ancestors, outermost first; nil at top level
}

// ID returns the transaction identifier.
func (tx *Tx) ID() TID { return tx.id }

// Read returns the named server's value for key under a shared lock.
func (tx *Tx) Read(serverName, key string) ([]byte, error) {
	if tx.node.crashed {
		return nil, ErrCrashed
	}
	if srv, ok := tx.node.comm.LocalServer(serverName); ok {
		tx.chargeLocalOp()
		return srv.Read(tx.id, tx.anc, key)
	}
	site, ok := tx.node.cluster.names.Lookup(serverName)
	if !ok {
		return nil, fmt.Errorf("camelot: unknown server %q", serverName)
	}
	return tx.node.comm.Call(site, &commman.Request{
		TID: tx.id, Anc: tx.anc, Server: serverName, Op: commman.OpRead, Key: key,
	})
}

// Write sets the named server's value for key under an exclusive
// lock; the old and new values are reported to the site's log.
func (tx *Tx) Write(serverName, key string, value []byte) error {
	if tx.node.crashed {
		return ErrCrashed
	}
	if srv, ok := tx.node.comm.LocalServer(serverName); ok {
		tx.chargeLocalOp()
		return srv.Write(tx.id, tx.anc, key, value)
	}
	site, ok := tx.node.cluster.names.Lookup(serverName)
	if !ok {
		return fmt.Errorf("camelot: unknown server %q", serverName)
	}
	_, err := tx.node.comm.Call(site, &commman.Request{
		TID: tx.id, Anc: tx.anc, Server: serverName, Op: commman.OpWrite,
		Key: key, Value: value,
	})
	return err
}

// routeKey resolves key to its shard server through the cluster's
// shard map, rejecting keys no shard covers with the data tier's
// typed error so callers never wait on a lookup that cannot succeed.
func (tx *Tx) routeKey(key string) (string, error) {
	m := tx.node.cluster.cfg.ShardMap
	if m == nil {
		return "", fmt.Errorf("camelot: cluster has no shard map; use Write/Read with a server name")
	}
	if m.SiteOf(key) == 0 {
		return "", fmt.Errorf("%w: key %q (shard %d of %d)",
			server.ErrNoShard, key, m.ShardOf(key), m.Shards)
	}
	return m.ServerFor(key), nil
}

// WriteKey writes key wherever the cluster's shard map homes it: the
// operation is routed to the key's shard server (local or remote),
// and the remote path's response joins that site to the transaction's
// participant set, so the commit instance covers exactly the shards
// the family touched.
func (tx *Tx) WriteKey(key string, value []byte) error {
	srv, err := tx.routeKey(key)
	if err != nil {
		return err
	}
	return tx.Write(srv, key, value)
}

// ReadKey reads key from its shard server under a shared lock.
func (tx *Tx) ReadKey(key string) ([]byte, error) {
	srv, err := tx.routeKey(key)
	if err != nil {
		return nil, err
	}
	return tx.Read(srv, key)
}

// Child begins a nested transaction under tx (Moss model): its
// effects become permanent only if every ancestor up to the top
// commits, and aborting it does not disturb the rest of the family.
func (tx *Tx) Child() (*Tx, error) {
	if tx.node.crashed {
		return nil, ErrCrashed
	}
	c, anc, err := tx.node.tm.BeginChild(tx.id)
	if err != nil {
		return nil, err
	}
	return &Tx{node: tx.node, id: c, anc: anc}, nil
}

// Commit commits with default options: optimized presumed-abort
// two-phase commit (delayed subordinate commit record, piggybacked
// acks).
func (tx *Tx) Commit() error {
	return tx.CommitWith(Options{})
}

// CommitWith commits with explicit protocol options — the
// commit-transaction call's protocol argument (§3.3).
func (tx *Tx) CommitWith(opts Options) error {
	if tx.node.crashed {
		return ErrCrashed
	}
	_, err := tx.node.tm.Commit(tx.id, opts)
	return err
}

// Abort aborts the transaction (top-level: the abort protocol;
// nested: subtree undo). A top-level transaction whose commitment has
// begun is not aborted, and Abort says so.
func (tx *Tx) Abort() error {
	if tx.node.crashed {
		return ErrCrashed
	}
	return tx.node.tm.Abort(tx.id)
}

// chargeLocalOp models the application→server IPC of a local
// operation call (Figure 1 step 3).
func (tx *Tx) chargeLocalOp() {
	p := tx.node.cluster.cfg.Params
	rt.Charge(tx.node.cluster.r, tx.node.kernel, p.LocalIPCServer+p.KernelCPU)
	tx.node.cluster.tr.Count(tx.node.id, trace.IPCs, 1)
}

// Outcome re-exports the protocol outcome type.
type Outcome = wire.Outcome

// Outcome values.
const (
	OutcomeUnknown = wire.OutcomeUnknown
	OutcomeCommit  = wire.OutcomeCommit
	OutcomeAbort   = wire.OutcomeAbort
)
