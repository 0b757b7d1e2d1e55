package core

import (
	"camelot/internal/tid"
	"camelot/internal/trace"
	"camelot/internal/wal"
	"camelot/internal/wire"
)

// This file implements what the non-blocking commitment protocol of
// §3.3 adds to the commit skeleton (commit.go): the replication phase
// between the standard two, and its notify phase's outcome message.
// Three phases (prepare, replicate, notify), two log forces per site,
// five messages on the critical path of a one-subordinate update. The
// five changes to two-phase commit are marked where implemented:
// change 3 here, change 2's takeover in promotion.go, the rest at the
// skeleton step each alters.

// nbBeginReplication runs the replication phase (change 3), entered
// once every vote is in and some site updated: the coordinator forces
// the collected decision information locally and replicates it at
// enough subordinates to form a commit quorum. Read-only sites "often
// need not participate": they are enlisted only if the update sites
// alone cannot reach the quorum. Called and returns with f's lock held.
func (m *Manager) nbBeginReplication(f *family) {
	if f.nbState == wire.NBAbortIntent {
		// Change 4: this coordinator pledged abort to a promoted site
		// while still collecting votes, and a site may not join both
		// quorums. Only the original coordinator starts replication, so
		// after its pledge no commit quorum can form: decide abort.
		m.abortFamily(f)
		return
	}
	f.nbVotes = f.nbVotes[:0]
	for _, s := range f.nbSites {
		f.nbVotes = append(f.nbVotes, wire.SiteVote{Site: s, Vote: f.votes[s]})
	}

	// Pick replication targets: update subordinates first, read-only
	// subordinates only as quorum filler.
	//lint:ordered set copy; insertion order is unobservable
	for s := range f.updateSubs {
		f.replTargets[s] = true
	}
	for _, s := range f.nbSites {
		if len(f.replTargets)+1 >= f.commitQuorum { // +1: the coordinator's own record
			break
		}
		if s != m.cfg.Site && !f.replTargets[s] {
			f.replTargets[s] = true
		}
	}

	live, err := m.forceRecord(f, m.replicateRecord(f, m.cfg.Site)) // coordinator force #2
	if !live || err != nil {
		// On a failed force the replication record may be durable all
		// the same and would commit this transaction at recovery, so
		// deciding abort here would contradict it. Leave the family
		// unresolved.
		return
	}
	f.nbState = wire.NBReplicated
	f.replAcks[m.cfg.Site] = true
	f.ph = phReplicating
	f.attempts, f.backoffN = 0, 0
	m.tr.PhaseBegin(m.cfg.Site, tid.Top(f.id), "replicate")
	m.fanout(sortedSites(f.replTargets), m.replicateMsg(f), f.opts.Multicast)
	m.schedule(f, m.cfg.RetryInterval)
	m.nbCheckCommitQuorum(f)
}

// replicateRecord is the replicated decision information as a site
// forces it: the site list, quorum sizes and collected votes (f's lock
// held).
func (m *Manager) replicateRecord(f *family, coordinator tid.SiteID) *wal.Record {
	return &wal.Record{
		Type: wal.RecNBReplicate, TID: tid.Top(f.id), Coordinator: coordinator,
		Sites: f.nbSites, CommitQuorum: uint16(f.commitQuorum), AbortQuorum: uint16(f.abortQuorum),
		Votes: f.nbVotes,
	}
}

// onNBReplicateAck counts replication-phase acknowledgements.
func (m *Manager) onNBReplicateAck(msg *wire.Msg) {
	f := m.lockFamily(msg.TID.Family)
	if f == nil {
		return
	}
	defer m.unlockFamily(f)
	if f.ph != phReplicating {
		return
	}
	f.replAcks[msg.From] = true
	m.nbCheckCommitQuorum(f)
}

// nbCheckCommitQuorum commits once the replicated information
// excludes abort: "the atomic action that marks the commitment point
// of the protocol is the writing of a log record that forms a commit
// quorum." Called with f's lock held.
func (m *Manager) nbCheckCommitQuorum(f *family) {
	if f.ph != phReplicating || len(f.replAcks) < f.commitQuorum {
		return
	}
	m.tr.PhaseEnd(m.cfg.Site, tid.Top(f.id), "replicate")
	// Notify the replication targets, which include every update
	// subordinate. Read-only sites that were not targets have already
	// released and forgotten.
	m.decideCommit(f, sortedSites(f.replTargets), nil)
}

// --- subordinate side ---

// onNBReplicate handles the replication phase at a subordinate: force
// the decision information, just as a prepare record is forced.
func (m *Manager) onNBReplicate(msg *wire.Msg) {
	f, created := m.lockOrCreateFamily(msg.TID.Family)
	defer m.unlockFamily(f)
	if created {
		// A read-only site enlisted as quorum filler (it voted
		// read-only and forgot, or never joined): record the intent
		// anyway — it holds no locks but its log strengthens the
		// quorum.
		f.opts.Protocol = wire.NonBlocking
	}
	if f.nbState == wire.NBAbortIntent {
		// Change 4: a site may not join both quorums.
		m.send(msg.From, &wire.Msg{Kind: wire.KNBStatusResp, TID: msg.TID, State: f.nbState})
		return
	}
	if f.nbState == wire.NBReplicated || f.ph == phReplicated {
		m.send(msg.From, &wire.Msg{Kind: wire.KNBReplicateAck, TID: msg.TID})
		return
	}
	f.nbSites = msg.Sites
	f.commitQuorum = int(msg.CommitQuorum)
	f.abortQuorum = int(msg.AbortQuorum)
	f.nbVotes = msg.Votes
	// Subordinate force #2.
	if live, err := m.forceRecord(f, m.replicateRecord(f, msg.From)); !live || err != nil {
		return
	}
	f.ph = phReplicated
	f.nbState = wire.NBReplicated
	m.send(msg.From, &wire.Msg{Kind: wire.KNBReplicateAck, TID: msg.TID})
	m.schedule(f, m.cfg.PromotionTimeout)
}

// onNBOutcome applies the notify-phase decision at a subordinate (or
// at a tardy original coordinator when a promoted subordinate decided
// first — "having several simultaneous coordinators is possible, but
// is not a problem"). The acknowledgement (change 4: abort's as well as
// commit's) is owed once the outcome is recorded, not once it is
// durable, and travels as every protocol's does (queueAck).
func (m *Manager) onNBOutcome(msg *wire.Msg) {
	commit := msg.Outcome == wire.OutcomeCommit
	f := m.lockFamily(msg.TID.Family)
	if f == nil {
		// Already resolved and forgotten: the outcome was re-sent.
		m.ackNow(msg.From, msg.TID)
		return
	}
	if f.ph == phCommitted || f.ph == phAborted {
		m.ackNow(msg.From, msg.TID)
		m.unlockFamily(f)
		return
	}
	parts := m.participants(f)
	m.tr.PhaseEnd(m.cfg.Site, msg.TID, "prepared")
	out, recType := wire.OutcomeAbort, wal.RecAbort
	if commit {
		out, recType = wire.OutcomeCommit, wal.RecCommit
		f.ph = phCommitted
	} else {
		f.ph = phAborted
		m.tr.Count(m.cfg.Site, trace.Aborted, 1)
	}
	// We may be a coordinator (original or promoted) with a waiting
	// client.
	f.answer(out)
	m.log.Append(&wal.Record{Type: recType, TID: msg.TID}) //nolint:errcheck // lazy
	m.queueAck(msg.From, msg.TID)
	m.forget(f)
	m.unlockFamily(f)
	m.applyLocal(parts, msg.TID.Family, commit)
}
