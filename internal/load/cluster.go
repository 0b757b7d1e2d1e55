package load

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"camelot/camelot"
	"camelot/internal/ctl"
	"camelot/internal/shardmap"
	"camelot/internal/wire"
)

// ClusterConfig describes the real cluster the generator drives.
type ClusterConfig struct {
	// Sites is the number of in-process RealNodes (real UDP sockets,
	// real ctl TCP servers, real on-disk WALs under Dir).
	Sites int
	// Shards is the shard count of the map spread round-robin over
	// the sites; zero means one shard per site.
	Shards int
	// Dir is where each site's WAL file lives (one subpath per site).
	Dir string
	// CallTimeout bounds each ctl exchange; expired calls poison
	// their connection and count as errors. Zero means 5s.
	CallTimeout time.Duration
	// Sessions sizes the per-site connection pools' idle bound so a
	// steady-state run never churns dials.
	Sessions int
}

// Cluster is an N-site in-process deployment with its control plane,
// plus the client machinery the generator needs: one connection pool
// per site and a unique-key source honoring the shard map.
type Cluster struct {
	cfg    ClusterConfig
	nodes  []*camelot.RealNode
	ctls   []*ctl.Server
	pools  []*ctl.Pool
	smap   *shardmap.Map
	keyCtr atomic.Int64

	// startStats snapshots per-site counters at StartCluster so a
	// report can charge only this run's work.
	walAppends0, walWrites0 int
	sent0, recv0, dropped0  int
}

// StartCluster boots the deployment: every site recovered, fully
// meshed over UDP, ctl servers listening, pools dialed lazily.
func StartCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Sites <= 0 {
		return nil, fmt.Errorf("load: cluster needs at least one site")
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = 5 * time.Second
	}
	if cfg.Shards <= 0 {
		cfg.Shards = cfg.Sites
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("load: cluster dir: %w", err)
	}
	c := &Cluster{cfg: cfg}
	var sites []camelot.SiteID
	for i := 1; i <= cfg.Sites; i++ {
		sites = append(sites, camelot.SiteID(i))
	}
	smap, err := shardmap.New(1, cfg.Shards, sites)
	if err != nil {
		return nil, err
	}
	c.smap = smap
	for _, id := range sites {
		ncfg := camelot.DefaultRealConfig(id)
		ncfg.WALPath = filepath.Join(cfg.Dir, fmt.Sprintf("site%d.wal", id))
		ncfg.ShardMap = c.smap
		n, err := camelot.StartRealNode(ncfg)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.nodes = append(c.nodes, n)
		if err := n.Recover(); err != nil {
			c.Close()
			return nil, err
		}
	}
	for _, a := range c.nodes {
		for _, b := range c.nodes {
			if a == b {
				continue
			}
			if err := a.AddPeer(b.ID(), b.Addr()); err != nil {
				c.Close()
				return nil, err
			}
		}
	}
	for _, n := range c.nodes {
		s, err := ctl.Serve(n, "127.0.0.1:0")
		if err != nil {
			c.Close()
			return nil, err
		}
		c.ctls = append(c.ctls, s)
		c.pools = append(c.pools, ctl.NewPool(s.Addr(), cfg.CallTimeout, cfg.Sessions))
	}
	c.snapshot()
	return c, nil
}

// snapshot records the WAL and transport baselines.
func (c *Cluster) snapshot() {
	c.walAppends0, c.walWrites0 = 0, 0
	c.sent0, c.recv0, c.dropped0 = 0, 0, 0
	for _, n := range c.nodes {
		a, w := n.LogStats()
		c.walAppends0 += a
		c.walWrites0 += w
		s, r, d := n.Peer().Stats()
		c.sent0 += s
		c.recv0 += r
		c.dropped0 += d
	}
}

// Counters returns the cluster-wide WAL and transport deltas since
// StartCluster (or the last snapshot): log records appended, device
// writes — blocks made durable, one write and one fsync each, which
// group commit fills with every record pending when the write is
// issued — and datagrams sent/received/dropped.
func (c *Cluster) Counters() (walAppends, walDeviceWrites, sent, recv, dropped int) {
	for _, n := range c.nodes {
		a, w := n.LogStats()
		walAppends += a
		walDeviceWrites += w
		s, r, d := n.Peer().Stats()
		sent += s
		recv += r
		dropped += d
	}
	return walAppends - c.walAppends0, walDeviceWrites - c.walWrites0,
		sent - c.sent0, recv - c.recv0, dropped - c.dropped0
}

// Dials sums the pools' dial counts — the generator's check that
// connection pooling is actually working.
func (c *Cluster) Dials() int {
	total := 0
	for _, p := range c.pools {
		total += p.Dials()
	}
	return total
}

// Close tears the deployment down: pools, ctl servers, nodes.
func (c *Cluster) Close() {
	for _, p := range c.pools {
		p.Close() //nolint:errcheck // teardown
	}
	for _, s := range c.ctls {
		s.Close() //nolint:errcheck // teardown
	}
	for _, n := range c.nodes {
		n.Close() //nolint:errcheck // teardown
	}
}

// keyFor mints a fresh key homed at site. Keys are unique across the
// run so the workload measures the commit path, not lock contention.
func (c *Cluster) keyFor(site camelot.SiteID) (string, error) {
	return c.smap.KeyAt("k"+itoa(int(c.keyCtr.Add(1))), site)
}

// Txn drives one distributed update through the cluster over ctl:
// the session's round-robin coordinator plus one remote participant,
// one write each, committed under the given protocol. A clean abort
// counts as a completed operation — the protocol answered — so only
// infrastructure failures (unavailable node, timeout, routing error)
// surface as errors.
func (c *Cluster) Txn(session, seq int, protocol wire.Protocol) error {
	n := len(c.nodes)
	coordIdx := session % n
	remoteIdx := (coordIdx + 1) % n

	coord, err := c.pools[coordIdx].Get()
	if err != nil {
		return err
	}
	defer c.pools[coordIdx].Put(coord)

	t, err := coord.Begin()
	if err != nil {
		return err
	}
	if err := c.write(coord, coordIdx, t); err != nil {
		coord.Abort(t) //nolint:errcheck // already failing
		return err
	}
	if remoteIdx != coordIdx {
		remote, err := c.pools[remoteIdx].Get()
		if err != nil {
			coord.Abort(t) //nolint:errcheck // already failing
			return err
		}
		werr := c.write(remote, remoteIdx, t)
		c.pools[remoteIdx].Put(remote)
		if werr != nil {
			coord.Abort(t) //nolint:errcheck // already failing
			return werr
		}
		if err := coord.AddSites(t, []camelot.SiteID{c.nodes[remoteIdx].ID()}); err != nil {
			coord.Abort(t) //nolint:errcheck // already failing
			return err
		}
	}
	if _, err := coord.CommitWith(t, protocol.String()); err != nil && !errors.Is(err, ctl.ErrAborted) {
		return err
	}
	return nil
}

// write performs one update of a fresh key at the node behind cl.
func (c *Cluster) write(cl *ctl.Client, nodeIdx int, t camelot.TID) error {
	key, err := c.keyFor(c.nodes[nodeIdx].ID())
	if err != nil {
		return err
	}
	return cl.WriteKey(t, key, []byte("v"))
}
