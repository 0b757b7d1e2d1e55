package camelot

import (
	"fmt"

	"camelot/internal/core"
	"camelot/internal/det"
	"camelot/internal/diskman"
	"camelot/internal/server"
	"camelot/internal/tid"
	"camelot/internal/wal"
)

// recoverNode runs the recovery process against the node's freshly
// reopened log; see recoverSite.
func recoverNode(n *Node) error {
	return recoverSite(n.id, n.log, n.pages, n.tm, n.servers)
}

// recoverSite runs the recovery process for one site against its
// freshly reopened log: load the disk manager's page image, redo the
// retained log tail's committed updates on top of it, reinstall
// in-doubt updates under re-acquired locks, and hand the analysis to
// the transaction manager, which resumes unresolved commitments
// (core.Manager.Restore). An unreadable log (wal.ErrCorrupt), or one
// that names a data server this site does not host, is returned to
// the caller, which must keep the site down. Both incarnations of a
// site — the simulated Node and the real-network RealNode — recover
// through this one function, so the fault coverage the chaos explorer
// builds up against it transfers to real deployments.
func recoverSite(id tid.SiteID, log *wal.Log, pages *diskman.PageStore, tm *core.Manager, servers map[string]*server.Server) error {
	a, data, _, err := diskman.Recover(id, log, pages)
	if err != nil {
		return err
	}

	// A log naming a server this site does not host was written under
	// another layout (a different shard map, say). Coming up without
	// that data, or without its in-doubt locks, would be silent loss:
	// refuse before touching anything.
	for _, name := range det.SortedKeys(data) {
		if servers[name] == nil {
			return fmt.Errorf("camelot: site %d: log holds committed data for server %q, which this site does not host", id, name)
		}
	}
	for _, d := range a.InDoubt {
		for _, name := range det.SortedKeys(d.Updates) {
			if servers[name] == nil {
				return fmt.Errorf("camelot: site %d: log holds in-doubt updates of %v for server %q, which this site does not host", id, d.TID, name)
			}
		}
	}

	// Install the recovered image (page base + redone tail) into each
	// server.
	for _, name := range det.SortedKeys(data) {
		servers[name].Install(data[name])
	}

	// Re-apply in-doubt updates under locks; the servers holding them
	// are the family's participants when the protocol resumes.
	parts := make(map[tid.TID][]server.Participant, len(a.InDoubt))
	for _, d := range a.InDoubt {
		for _, name := range det.SortedKeys(d.Updates) {
			srv := servers[name]
			recs := d.Updates[name]
			ups := make([]server.RecoveredUpdate, 0, len(recs))
			for _, r := range recs {
				ups = append(ups, server.RecoveredUpdate{Key: r.Key, Old: r.Old, New: r.New})
			}
			srv.Reacquire(d.TID, ups)
			parts[d.TID] = append(parts[d.TID], srv)
		}
	}
	tm.Restore(a, parts)
	return nil
}
