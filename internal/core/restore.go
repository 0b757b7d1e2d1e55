package core

import (
	"camelot/internal/recman"
	"camelot/internal/server"
	"camelot/internal/tid"
	"camelot/internal/wire"
)

// familyFloorMargin is how far above the log's highest family counter
// a restarted manager begins: it covers transactions that left no log
// record (read-only, or never forced) in the crashed incarnation.
const familyFloorMargin = 1000

// Restore is the one way back in after a crash: it takes the recovery
// process's analysis of this site's log (recman.Analyze) whole, with
// the participants whose in-doubt updates the data tier has already
// re-applied under re-acquired locks, keyed by in-doubt TID.
//
// New families begin above every identifier the log names — reusing
// one would let a new transaction's ABORT record doom a previous
// incarnation's committed updates. The resolved-outcome memory is
// refilled from the retained log tail only, so status and
// presumed-abort inquiries about pre-crash transactions answer
// correctly; outcomes absorbed into a checkpoint image stay out of RAM,
// answered by the resolved backstop. Each unfinished family is rebuilt
// from its durable state, and then its first step is the one its fired
// timer would take (tick): recovery is a timer that has already fired.
func (m *Manager) Restore(a *recman.Analysis, parts map[tid.TID][]server.Participant) {
	m.lockAttributed(m.idMu, lockClassIDs)
	m.nextFamily = max(m.nextFamily, a.MaxLocalFamily+familyFloorMargin)
	m.idMu.Unlock()

	m.lockAttributed(m.resMu, lockClassResolved)
	m.resolved.Merge(&a.Outcomes)
	m.resMu.Unlock()

	for _, d := range a.InDoubt {
		m.resume(d.TID, func(f *family) { m.restoreInDoubt(f, d, parts[d.TID]) })
	}
	for _, r := range a.Resume {
		m.resume(r.TID, func(f *family) { restoreCoordinator(f, r) })
	}
}

// resume rebuilds one family on a pool thread and hands it to tick.
func (m *Manager) resume(t tid.TID, rebuild func(*family)) {
	m.pool.Post(func() {
		f, _ := m.lockOrCreateFamily(t.Family)
		rebuild(f)
		m.unlockFamily(f)
		m.tick(t.Family)
	})
}

// restoreInDoubt rebuilds a family this site prepared for and never
// saw resolved (f's lock held). Every field of d lands here; a field a
// protocol does not use is zero in its records. The coordinator d names,
// if any, is the family's origin under every protocol, which is where
// tick's inquiries go. An in-doubt family resumes as a participant — the
// original coordinator too, since the decision now rests with a quorum
// or with presumed abort — so tick finds it prepared (inquire, promote,
// or re-cast then take over) or, for a Paxos site holding acceptor
// state alone, active.
func (m *Manager) restoreInDoubt(f *family, d recman.InDoubt, parts []server.Participant) {
	for _, p := range parts {
		f.join(p)
	}
	f.opts.Protocol = d.Protocol
	f.nbSites, f.commitQuorum, f.abortQuorum, f.nbVotes = d.Sites, d.CommitQuorum, d.AbortQuorum, d.Votes
	f.paxAcceptors, f.paxPromised, f.paxAccForced = d.Acceptors, d.Promised, d.AccForced
	if d.Protocol == wire.Paxos {
		for _, a := range d.Accepted {
			f.paxAcc = putSite(f.paxAcc, a, acceptedSite)
		}
		if !d.Prepared {
			// No vote of its own was ever durable: volatile RM state is
			// gone, so a late vote request must hear No while the acceptor
			// role keeps answering.
			f.paxAcceptorOnly = true
			return
		}
	}
	f.prepared, f.localVote, f.ph = true, wire.VoteYes, phPrepared
	switch {
	case d.Replicated:
		f.ph, f.nbState = phReplicated, wire.NBReplicated
	case d.AbortIntent:
		// Change 4: the pledge outlives the crash. The site may not now
		// join the commit quorum, and its promotion counts the pledge
		// rather than forcing another.
		f.nbState = wire.NBAbortIntent
	case d.Protocol == wire.NonBlocking:
		f.nbState = wire.NBPrepared
	}
}

// restoreCoordinator rebuilds a coordinator whose decision is durable
// but not acknowledged everywhere (f's lock held): "the coordinator
// must not forget about the transaction before the subordinate writes
// its own commit record", so it owes every update subordinate the
// outcome again.
func restoreCoordinator(f *family, r recman.CoordResume) {
	f.coord = true
	f.ph = phCommitted
	f.opts.Protocol = r.Protocol
	f.acksPending = unionSites(f.acksPending, r.UpdateSubs...)
	f.updateSubs = unionSites(f.updateSubs, r.UpdateSubs...)
}
