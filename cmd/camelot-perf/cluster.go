package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"camelot/camelot"
	"camelot/internal/core"
	"camelot/internal/ctl"
	"camelot/internal/shardmap"
	"camelot/internal/wal"
)

// cluster is the system under test: three real sites in this process,
// UDP loopback between their transaction managers, a file WAL each,
// a ctl server each, and the shard map's data tier (one shard per
// site). It is driven only through camelot.RealNode and ctl.
type cluster struct {
	dir    string
	smap   *shardmap.Map
	traced bool

	nodes []*camelot.RealNode
	ctls  []*ctl.Server

	// appends counts wal.Store.Append calls per site since the WAL
	// file was created, across restarts; logs is the traced run's
	// per-site timing record.
	appends [numSites]atomic.Int64
	logs    [numSites]*appendLog
}

func newCluster(dir string, traced bool) *cluster {
	c := &cluster{dir: dir, smap: newShardMap(), traced: traced}
	for i := range c.logs {
		c.logs[i] = &appendLog{site: i}
	}
	return c
}

func (c *cluster) walPath(site int) string {
	return filepath.Join(c.dir, fmt.Sprintf("site%d.wal", site+1))
}

// start opens every site on its WAL file (replaying it if it is not
// empty), meshes the sites and starts their ctl servers. It returns
// the time spent opening the logs and running Recover.
func (c *cluster) start() (time.Duration, error) {
	var recovering time.Duration
	for i := 0; i < numSites; i++ {
		site := i
		cfg := camelot.DefaultRealConfig(camelot.SiteID(site + 1))
		cfg.WALPath = c.walPath(site)
		cfg.ShardMap = c.smap
		cfg.WrapStore = func(s wal.Store) wal.Store {
			if c.traced {
				return &timingStore{inner: s, appends: &c.appends[site], log: c.logs[site]}
			}
			return &countingStore{inner: s, appends: &c.appends[site]}
		}
		begin := time.Now()
		n, err := camelot.StartRealNode(cfg)
		if err != nil {
			c.stop()
			return 0, err
		}
		c.nodes = append(c.nodes, n)
		if err := n.Recover(); err != nil {
			c.stop()
			return 0, fmt.Errorf("recover site %d: %w", site+1, err)
		}
		recovering += time.Since(begin)
	}
	for _, a := range c.nodes {
		for _, b := range c.nodes {
			if a == b {
				continue
			}
			if err := a.AddPeer(b.ID(), b.Addr()); err != nil {
				c.stop()
				return 0, err
			}
		}
	}
	for _, n := range c.nodes {
		s, err := ctl.Serve(n, "127.0.0.1:0")
		if err != nil {
			c.stop()
			return 0, err
		}
		c.ctls = append(c.ctls, s)
	}
	return recovering, nil
}

// stop closes the ctl servers and the sites; the WAL files stay.
func (c *cluster) stop() {
	for _, s := range c.ctls {
		s.Close() //nolint:errcheck // teardown
	}
	for _, n := range c.nodes {
		n.Close() //nolint:errcheck // teardown
	}
	c.ctls, c.nodes = nil, nil
}

// preload writes the working set at every site in local transactions,
// so each workload runs over a log and an object table of some size.
func (c *cluster) preload(pre [][]string) error {
	for site, keys := range pre {
		n := c.nodes[site]
		for len(keys) > 0 {
			batch := keys[:min(preloadTxn, len(keys))]
			keys = keys[len(batch):]
			t, err := n.Begin()
			if err != nil {
				return fmt.Errorf("preload site %d: %w", site+1, err)
			}
			for _, k := range batch {
				if err := n.WriteKey(t, k, valueFor(k, preloadVal)); err != nil {
					return fmt.Errorf("preload site %d: %w", site+1, err)
				}
			}
			if _, err := n.Commit(t, camelot.Options{}); err != nil {
				return fmt.Errorf("preload site %d: %w", site+1, err)
			}
		}
	}
	return nil
}

// counters is a snapshot of what the layers count about themselves,
// summed over the sites. Metrics come from the difference of two
// snapshots (sub).
type counters struct {
	storeAppends int64 // wal.Store.Append calls: flushes
	walBytes     int64 // WAL file sizes
	logAppends   int   // wal.Log records appended
	deviceWrites int   // wal.Log's own device-write counter
	sent, recv   int
	dropped      int
	oversize     int
	core         core.Stats
	reads        int
	writes       int
	lockWaits    int
	lockWait     time.Duration
}

func (c *cluster) snapshot() (counters, error) {
	var s counters
	for i, n := range c.nodes {
		s.storeAppends += c.appends[i].Load()
		fi, err := os.Stat(c.walPath(i))
		if err != nil {
			return s, err
		}
		s.walBytes += fi.Size()
		a, w := n.LogStats()
		s.logAppends += a
		s.deviceWrites += w
		sent, recv, dropped := n.Peer().Stats()
		s.sent += sent
		s.recv += recv
		s.dropped += dropped
		s.oversize += n.Peer().Oversize()
		cs := n.TM().Stats()
		s.core.AcksPiggybacked += cs.AcksPiggybacked
		s.core.AcksStandalone += cs.AcksStandalone
		s.core.Retransmits += cs.Retransmits
		s.core.Inquiries += cs.Inquiries
		s.core.ResolvedRetained += cs.ResolvedRetained
		for _, name := range n.ServerNames() {
			srv := n.Server(name)
			r, w := srv.OpCounts()
			s.reads += r
			s.writes += w
			waits, total := srv.Locks().Waits()
			s.lockWaits += waits
			s.lockWait += total
		}
	}
	return s, nil
}

// sub returns the growth of every counter from b to a. ResolvedRetained
// is a level, not a count, and keeps a's value.
func (a counters) sub(b counters) counters {
	a.storeAppends -= b.storeAppends
	a.walBytes -= b.walBytes
	a.logAppends -= b.logAppends
	a.deviceWrites -= b.deviceWrites
	a.sent -= b.sent
	a.recv -= b.recv
	a.dropped -= b.dropped
	a.oversize -= b.oversize
	a.core.AcksPiggybacked -= b.core.AcksPiggybacked
	a.core.AcksStandalone -= b.core.AcksStandalone
	a.core.Retransmits -= b.core.Retransmits
	a.core.Inquiries -= b.core.Inquiries
	a.reads -= b.reads
	a.writes -= b.writes
	a.lockWaits -= b.lockWaits
	a.lockWait -= b.lockWait
	return a
}

// queueDepth sums the sites' transaction-manager input queues.
func (c *cluster) queueDepth() int {
	d := 0
	for _, n := range c.nodes {
		d += n.TM().QueueDepth()
	}
	return d
}
