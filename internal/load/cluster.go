package load

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"camelot/camelot"
	"camelot/internal/ctl"
	"camelot/internal/shardmap"
	"camelot/internal/trace"
	"camelot/internal/wire"
	"camelot/internal/workload"
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
// per site and the shard map operations are planned against.
type Cluster struct {
	nodes []*camelot.RealNode
	ctls  []*ctl.Server
	pools []*ctl.Pool
	smap  *shardmap.Map

	// base is the sites' summed counters at StartCluster, so a report
	// charges only this run's work.
	base trace.SiteCounters
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
	c := &Cluster{}
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
	// The baseline is still zero, so this reads the boot's own totals.
	c.base = c.Counters()
	return c, nil
}

// Counters returns the sites' summed counters since StartCluster: log
// records appended, device writes — blocks made durable, one write and
// one fsync each, which group commit fills with every record pending
// when the write is issued — datagrams sent/received/dropped, and the
// rest of the ledger.
func (c *Cluster) Counters() trace.SiteCounters {
	var sum trace.SiteCounters
	for _, n := range c.nodes {
		sum = sum.Add(n.Counters())
	}
	return sum.Sub(c.base)
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

// Clients returns one operation's client function: a site's connection
// is taken from its pool on first use (nil if none can be had) and kept
// until release hands every one taken back.
func (c *Cluster) Clients() (client func(camelot.SiteID) *ctl.Client, release func()) {
	held := make([]*ctl.Client, len(c.pools))
	client = func(id camelot.SiteID) *ctl.Client {
		i := int(id) - 1
		if held[i] == nil {
			held[i], _ = c.pools[i].Get() // a failed Get leaves nil: unreachable
		}
		return held[i]
	}
	release = func() {
		for i, cl := range held {
			c.pools[i].Put(cl)
		}
	}
	return client, release
}

// Update is one loadgen operation, arrival i of the schedule: a fresh
// key (unique across the run, so the workload measures the commit path,
// not lock contention) at the session's round-robin coordinator and at
// the next site, planned and driven by internal/workload like every
// other real-cluster transaction. A clean abort is a completed
// operation — the protocol answered; only what cut the transaction
// short (unavailable node, timeout, routing error) is an error.
func (c *Cluster) Update(session, i int, protocol wire.Protocol) error {
	coord := c.nodes[session%len(c.nodes)].ID()
	sites := []camelot.SiteID{coord}
	if next := c.nodes[(session+1)%len(c.nodes)].ID(); next != coord {
		sites = append(sites, next)
	}
	client, release := c.Clients()
	defer release()
	ex := workload.Executor{Client: client}
	_, err := ex.Run(workload.Across("k"+strconv.Itoa(i), c.smap, sites, coord, protocol))
	return err
}
