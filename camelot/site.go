package camelot

import (
	"fmt"

	"camelot/internal/core"
	"camelot/internal/det"
	"camelot/internal/diskman"
	"camelot/internal/rt"
	"camelot/internal/server"
	"camelot/internal/tid"
	"camelot/internal/trace"
	"camelot/internal/transport"
	"camelot/internal/wal"
	"camelot/internal/wire"
)

// site is one Camelot site's fixed set of processes, whatever runtime
// it runs on (Figure 1): the disk manager's log and page image, the
// transaction manager, recovery, and the data servers. The simulated
// Node and the real-network RealNode both embed one, so they open,
// recover and stop through the same code; they differ only in the
// configurations they pass to open and in what they wire around it.
type site struct {
	id      SiteID
	tr      *trace.Collector   // the site's ledger (and timeline, if kept)
	store   wal.Store          // stable storage; outlives every incarnation
	pages   *diskman.PageStore // the checkpoint image; outlives them too
	log     *wal.Log
	tm      *core.Manager
	servers map[string]*server.Server
}

// open starts a fresh incarnation's log and transaction manager over
// the site's store. It fills in each configuration's Site and Trace,
// and the TM's resolved-outcome backstop: outcomes absorbed into the
// checkpoint image are truncated from the TM's resolved memory, and
// the image answers for them instead.
func (s *site) open(r rt.Runtime, lc wal.Config, tc core.Config, net transport.Sender) {
	lc.Site, lc.Trace = s.id, s.tr
	tc.Site, tc.Trace = s.id, s.tr
	tc.ResolvedBackstop = s.pages.Outcome
	s.log = wal.Open(r, s.store, lc)
	s.tm = core.New(r, tc, s.log, net)
}

// recover runs the recovery process against the freshly opened log:
// load the disk manager's page image, redo the retained log tail's
// committed updates on top of it, reinstall in-doubt updates under
// re-acquired locks, and hand the analysis to the transaction manager,
// which resumes unresolved commitments (core.Manager.Restore). An
// unreadable log (wal.ErrCorrupt), or one that names a data server
// this site does not host, is returned to the caller, which must keep
// the site down. Both runtimes recover through this one method, so the
// fault coverage the chaos explorer builds up against it transfers to
// real deployments.
func (s *site) recover() error {
	a, err := diskman.Recover(s.id, s.log, s.pages)
	if err != nil {
		return err
	}

	// A log naming a server this site does not host was written under
	// another layout (a different shard map, say). Coming up without
	// that data, or without its in-doubt locks, would be silent loss:
	// refuse before touching anything.
	for _, name := range det.SortedKeys(a.Data) {
		if s.servers[name] == nil {
			return fmt.Errorf("camelot: site %d: log holds committed data for server %q, which this site does not host", s.id, name)
		}
	}
	for _, d := range a.InDoubt {
		for _, name := range det.SortedKeys(d.Updates) {
			if s.servers[name] == nil {
				return fmt.Errorf("camelot: site %d: log holds in-doubt updates of %v for server %q, which this site does not host", s.id, d.TID, name)
			}
		}
	}

	// Install the recovered image (page base + redone tail) into each
	// server, which takes its segment over.
	for _, name := range det.SortedKeys(a.Data) {
		s.servers[name].Install(a.Data[name])
	}

	// Re-apply in-doubt updates under locks; the servers holding them
	// are the family's participants when the protocol resumes.
	parts := make(map[tid.TID][]server.Participant, len(a.InDoubt))
	for _, d := range a.InDoubt {
		for _, name := range det.SortedKeys(d.Updates) {
			srv := s.servers[name]
			srv.Reacquire(d.TID, d.Updates[name])
			parts[d.TID] = append(parts[d.TID], srv)
		}
	}
	s.tm.Restore(a, parts)
	return nil
}

// stop ends the incarnation: the transaction manager, then the log.
// Volatile state is lost; the store and the page image survive for
// the next open.
func (s *site) stop() {
	s.tm.Close()
	s.log.Close()
}

// ID returns the site id.
func (s *site) ID() SiteID { return s.id }

// TM exposes the transaction manager (for statistics).
func (s *site) TM() *core.Manager { return s.tm }

// Server returns the named local data server, or nil.
func (s *site) Server(name string) *server.Server { return s.servers[name] }

// ServerNames returns the local data servers' names in order.
func (s *site) ServerNames() []string { return det.SortedKeys(s.servers) }

// OutcomeOf returns this site's resolved outcome for a family, or
// OutcomeUnknown if it holds none.
func (s *site) OutcomeOf(f tid.FamilyID) wire.Outcome { return s.tm.OutcomeOf(f) }
