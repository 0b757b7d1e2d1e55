package core

import (
	"camelot/internal/server"
	"camelot/internal/tid"
	"camelot/internal/wire"
)

// Restore entry points used by the recovery process (internal/recman)
// to rebuild transaction-manager state from the log after a crash.

// RestorePreparedSub recreates a subordinate that crashed while
// prepared: it holds its (re-acquired) locks and immediately resumes
// the protocol that will resolve it — presumed-abort inquiry for
// two-phase commit, a promotion sweep for the non-blocking protocol.
func (m *Manager) RestorePreparedSub(t tid.TID, coordinator tid.SiteID, proto wire.Protocol,
	sites []tid.SiteID, commitQuorum, abortQuorum int, replicated bool,
	votes []wire.SiteVote, parts []server.Participant) {

	m.queue.Put(func() {
		f, _ := m.lockOrCreateFamily(t.Family)
		defer m.unlockFamily(f)
		f.prepared = true
		f.opts.Protocol = proto
		for _, p := range parts {
			f.participants[p.Name()] = p
		}
		if proto == wire.NonBlocking {
			f.nbSites = sites
			f.commitQuorum = commitQuorum
			f.abortQuorum = abortQuorum
			f.nbVotes = votes
			if replicated {
				f.ph = phReplicated
				f.nbState = wire.NBReplicated
			} else {
				f.ph = phPrepared
				f.nbState = wire.NBPrepared
			}
			// Resume by promotion: the coordinator may be long gone.
			m.promote(f)
			return
		}
		f.ph = phPrepared
		// Two-phase commit blocks here until the coordinator answers:
		// ask immediately and keep asking.
		m.bumpStats(func(s *Stats) { s.Inquiries++ })
		m.send(coordinator, &wire.Msg{Kind: wire.KInquire, TID: tid.Top(f.id)})
		m.schedule(f, m.cfg.InquireInterval)
	})
}

// RestorePaxos recreates a Paxos Commit participant (and its
// co-hosted acceptor role, if any) that crashed without a durable
// outcome. Whether the site was the original coordinator does not
// matter — the commit point lives at the acceptors, so every restored
// site resumes as an ordinary participant: one that forced its own
// prepared record re-casts its vote and, failing progress, drives a
// takeover; one holding only acceptor state serves that role and
// inquires at the origin, where the resolved memory or presumed abort
// answers.
func (m *Manager) RestorePaxos(t tid.TID, coordinator tid.SiteID,
	sites, acceptors []tid.SiteID, promised uint64,
	accepted []wire.PaxosAccepted, accForced, prepared bool,
	parts []server.Participant) {

	m.queue.Put(func() {
		f, _ := m.lockOrCreateFamily(t.Family)
		defer m.unlockFamily(f)
		m.ensurePaxos(f)
		f.nbSites = sites
		f.paxAcceptors = acceptors
		f.paxPromised = promised
		f.paxAccForced = accForced
		for _, a := range accepted {
			f.paxAcc[a.Site] = a
		}
		for _, p := range parts {
			f.participants[p.Name()] = p
		}
		if prepared {
			f.prepared = true
			f.localVote = wire.VoteYes
			f.ph = phPrepared
		} else {
			// No vote of our own was ever durable: volatile RM state is
			// gone, so a late vote request must hear No (see
			// paxAcceptorOnly) while the acceptor role keeps answering.
			f.paxAcceptorOnly = true
			f.ph = phActive
		}
		m.schedule(f, m.cfg.InquireInterval)
	})
}

// RestoreCommittedCoordinator recreates a coordinator that crashed
// after its commit point but before every subordinate acknowledged:
// it must keep re-sending COMMIT until the remaining acks arrive,
// because "the coordinator must not forget about the transaction
// before the subordinate writes its own commit record."
func (m *Manager) RestoreCommittedCoordinator(t tid.TID, updateSubs []tid.SiteID, proto wire.Protocol) {
	m.queue.Put(func() {
		f, _ := m.lockOrCreateFamily(t.Family)
		defer m.unlockFamily(f)
		f.coord = true
		f.ph = phCommitted
		f.opts.Protocol = proto
		if proto == wire.NonBlocking {
			f.nbSites = append([]tid.SiteID{m.cfg.Site}, updateSubs...)
		}
		for _, s := range updateSubs {
			f.acksPending[s] = true
			f.updateSubs[s] = true
		}
		m.fanout(sortedSites(f.acksPending), m.outcomeMsg(f), false)
		m.awaitAcks(f, m.cfg.RetryInterval)
	})
}

// RestoreNBCoordinator recreates a non-blocking coordinator that
// crashed mid-protocol (prepared or replicated, no outcome). Rather
// than guess where phase one stood, it resumes through the promotion
// path, which is safe from any state.
func (m *Manager) RestoreNBCoordinator(t tid.TID, sites []tid.SiteID,
	commitQuorum, abortQuorum int, replicated bool, votes []wire.SiteVote,
	parts []server.Participant) {

	m.queue.Put(func() {
		f, _ := m.lockOrCreateFamily(t.Family)
		defer m.unlockFamily(f)
		f.coord = true
		f.opts.Protocol = wire.NonBlocking
		f.nbSites = sites
		f.commitQuorum = commitQuorum
		f.abortQuorum = abortQuorum
		f.nbVotes = votes
		for _, p := range parts {
			f.participants[p.Name()] = p
		}
		if replicated {
			f.ph = phReplicated
			f.nbState = wire.NBReplicated
		} else {
			f.ph = phPrepared
			f.nbState = wire.NBPrepared
		}
		m.promote(f)
	})
}
