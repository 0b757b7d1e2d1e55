package core

import (
	"sort"

	"camelot/internal/tid"
	"camelot/internal/wal"
	"camelot/internal/wire"
)

// This file implements the non-blocking commitment protocol of §3.3:
// three phases (prepare, replicate, notify), two log forces per site,
// five messages on the critical path of a one-subordinate update.
// The five changes to two-phase commit are marked where implemented.

// nbBeginCommit starts non-blocking commitment at the coordinator.
// Change 5: the coordinator prepares — forces its own prepare record
// — before sending the prepare message. Called and returns with f's
// lock held; the lock is released around the force.
func (m *Manager) nbBeginCommit(f *family) {
	sites := append([]tid.SiteID{m.cfg.Site}, sortedSites(f.remoteSites)...)
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	f.nbSites = sites
	// Quorum sizes satisfy Skeen's condition Qc + Qa > N, weighted
	// toward abort availability: commit needs a majority of intent
	// records, while the complementary abort quorum lets the largest
	// surviving minority that excludes commit still finish. With two
	// sites this means Qc=2, Qa=1 — a lone prepared subordinate can
	// abort after its coordinator dies.
	f.commitQuorum = len(sites)/2 + 1
	f.abortQuorum = len(sites) - f.commitQuorum + 1
	f.votes[m.cfg.Site] = f.localVote
	f.replAcks = make(map[tid.SiteID]bool)
	f.replTargets = make(map[tid.SiteID]bool)

	if f.localVote == wire.VoteYes {
		rec := &wal.Record{
			Type:         wal.RecPrepare,
			TID:          tid.Top(f.id),
			Coordinator:  m.cfg.Site,
			Sites:        sites,
			CommitQuorum: uint16(f.commitQuorum),
			AbortQuorum:  uint16(f.abortQuorum),
		}
		m.unlockFamily(f)
		lsn, err := m.log.Append(rec)
		if err == nil {
			err = m.log.Force(lsn) // coordinator force #1
			m.tr.LogForce(m.cfg.Site, rec.TID, rec.Type.String())
		}
		if !m.relockFamily(f) {
			return
		}
		if err != nil {
			// Fail-stopped log, site going down. If the prepare record
			// is durable, recovery resumes this coordinator and the
			// still-live subordinates may vote yes and commit — so the
			// outcome is undetermined, not abort. Leave the family
			// unresolved; Close reports it undetermined.
			return
		}
	}
	f.ph = phPreparing
	m.tr.PhaseBegin(m.cfg.Site, tid.Top(f.id), "prepare")
	// Change 1: the prepare message carries the site list and the
	// quorum sizes for the replication phase.
	m.fanout(sortedSites(f.remoteSites), m.prepareMsg(f), f.opts.Multicast)
	m.schedule(f, m.cfg.RetryInterval)
}

// onNBVote collects phase-one votes at the coordinator.
func (m *Manager) onNBVote(msg *wire.Msg) {
	f := m.lockFamily(msg.TID.Family)
	if f == nil {
		return
	}
	defer m.unlockFamily(f)
	if !f.coord || f.ph != phPreparing || f.opts.Protocol != wire.NonBlocking {
		return
	}
	f.votes[msg.From] = msg.Vote
	if msg.Vote == wire.VoteNo {
		m.nbDecideAbort(f)
		return
	}
	//lint:ordered pure membership test; no effect depends on visit order
	for s := range f.remoteSites {
		if _, ok := f.votes[s]; !ok {
			return
		}
	}
	m.nbBeginReplication(f)
}

// nbBeginReplication runs the replication phase (change 3): the
// coordinator forces the collected decision information locally and
// replicates it at enough subordinates to form a commit quorum.
// Read-only sites "often need not participate": they are enlisted
// only if the update sites alone cannot reach the quorum. Called and
// returns with f's lock held.
func (m *Manager) nbBeginReplication(f *family) {
	m.tr.PhaseEnd(m.cfg.Site, tid.Top(f.id), "prepare")
	allReadOnly := f.localVote == wire.VoteReadOnly
	f.nbVotes = f.nbVotes[:0]
	for _, s := range f.nbSites {
		v := f.votes[s]
		f.nbVotes = append(f.nbVotes, wire.SiteVote{Site: s, Vote: v})
		if s != m.cfg.Site && v == wire.VoteYes {
			f.updateSubs[s] = true
			allReadOnly = false
		}
	}
	if allReadOnly && !f.opts.DisableReadOnlyOpt {
		// Completely read-only: same critical path as two-phase
		// commit — no replication or notify phase, no log writes.
		f.ph = phCommitted
		m.bumpStats(func(s *Stats) { s.Committed++ })
		f.result.Set(wire.OutcomeCommit)
		m.releaseLocal(f, true)
		m.forget(f)
		return
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

	rec := &wal.Record{
		Type:         wal.RecNBReplicate,
		TID:          tid.Top(f.id),
		Coordinator:  m.cfg.Site,
		Sites:        f.nbSites,
		CommitQuorum: uint16(f.commitQuorum),
		AbortQuorum:  uint16(f.abortQuorum),
		Votes:        f.nbVotes,
	}
	m.unlockFamily(f)
	lsn, err := m.log.Append(rec)
	if err == nil {
		err = m.log.Force(lsn) // coordinator force #2
		m.tr.LogForce(m.cfg.Site, rec.TID, rec.Type.String())
	}
	if !m.relockFamily(f) {
		return
	}
	if err != nil {
		// Fail-stopped log, site going down. A durable replication
		// record commits this transaction at recovery, so deciding
		// abort here would contradict it. Leave the family unresolved.
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
	f.ph = phCommitted
	m.bumpStats(func(s *Stats) { s.Committed++ })
	m.tr.PhaseEnd(m.cfg.Site, tid.Top(f.id), "replicate")
	// The outcome is now decided; the local commit record may be lazy
	// because any recovery can reconstruct the decision from the
	// replicated quorum.
	m.log.Append(&wal.Record{Type: wal.RecCommit, TID: tid.Top(f.id)}) //nolint:errcheck // lazy by design
	if f.result != nil {
		f.result.Set(wire.OutcomeCommit)
	}
	// Notify phase. Read-only sites that were not replication targets
	// have already released and forgotten.
	//lint:ordered set union; insertion order is unobservable
	for s := range f.updateSubs {
		f.acksPending[s] = true
	}
	//lint:ordered set union; insertion order is unobservable
	for s := range f.replTargets {
		f.acksPending[s] = true
	}
	if len(f.acksPending) > 0 {
		m.tr.PhaseBegin(m.cfg.Site, tid.Top(f.id), "notify")
	}
	m.fanout(sortedSites(f.acksPending), m.outcomeMsg(f), f.opts.Multicast)
	m.releaseLocal(f, true)
	if len(f.acksPending) == 0 {
		m.end(f)
		return
	}
	m.schedule(f, m.ackWaitInterval())
}

// nbDecideAbort aborts before any commit quorum can exist (a No vote
// or a failed force): no site can hold a replicated commit intent, so
// notifying abort is safe. Called with f's lock held.
func (m *Manager) nbDecideAbort(f *family) {
	f.ph = phAborted
	m.bumpStats(func(s *Stats) { s.Aborted++ })
	m.tr.PhaseEnd(m.cfg.Site, tid.Top(f.id), "prepare")
	m.tr.PhaseEnd(m.cfg.Site, tid.Top(f.id), "replicate")
	m.log.Append(&wal.Record{Type: wal.RecAbort, TID: tid.Top(f.id)}) //nolint:errcheck // lazy
	if f.result != nil {
		f.result.Set(wire.OutcomeAbort)
	}
	//lint:ordered set construction; insertion order is unobservable
	for s := range f.remoteSites {
		if v, ok := f.votes[s]; ok && (v == wire.VoteNo || v == wire.VoteReadOnly) {
			continue
		}
		f.acksPending[s] = true
	}
	m.fanout(sortedSites(f.acksPending), m.outcomeMsg(f), f.opts.Multicast)
	m.releaseLocal(f, false)
	// Change 4: even for abort, no transaction manager forgets until
	// every site has the outcome.
	if len(f.acksPending) == 0 {
		m.end(f)
		return
	}
	m.schedule(f, m.cfg.RetryInterval)
}

// --- subordinate side ---

// onNBPrepare handles phase one at a non-blocking subordinate.
func (m *Manager) onNBPrepare(msg *wire.Msg) {
	f := m.lockFamily(msg.TID.Family)
	if f == nil {
		m.send(msg.From, &wire.Msg{Kind: wire.KNBVote, TID: msg.TID, Vote: wire.VoteNo})
		return
	}
	if f.ph == phPrepared || f.ph == phReplicated {
		m.send(msg.From, &wire.Msg{Kind: wire.KNBVote, TID: msg.TID, Vote: wire.VoteYes})
		m.unlockFamily(f)
		return
	}
	if f.ph != phActive {
		m.unlockFamily(f)
		return
	}
	f.opts = optionsFromFlags(msg.Flags)
	f.opts.Protocol = wire.NonBlocking
	f.nbSites = msg.Sites
	f.commitQuorum = int(msg.CommitQuorum)
	f.abortQuorum = int(msg.AbortQuorum)
	parts := m.participants(f)
	m.unlockFamily(f)

	vote := m.voteRound(parts, f.opts)
	switch vote {
	case wire.VoteNo:
		m.relockFamily(f) // stale descriptors still answer (as before the refactor)
		m.send(msg.From, &wire.Msg{Kind: wire.KNBVote, TID: msg.TID, Vote: wire.VoteNo})
		m.localAbort(f)
		m.unlockFamily(f)
	case wire.VoteReadOnly:
		// "A read-only subordinate typically writes no log records
		// and exchanges only one round of messages."
		m.relockFamily(f)
		m.send(msg.From, &wire.Msg{Kind: wire.KNBVote, TID: msg.TID, Vote: wire.VoteReadOnly})
		f.ph = phCommitted
		m.releaseLocal(f, true)
		m.forget(f)
		m.unlockFamily(f)
	case wire.VoteYes:
		rec := &wal.Record{
			Type:         wal.RecPrepare,
			TID:          msg.TID,
			Coordinator:  msg.From,
			Sites:        msg.Sites,
			CommitQuorum: msg.CommitQuorum,
			AbortQuorum:  msg.AbortQuorum,
		}
		lsn, err := m.log.Append(rec)
		if err == nil {
			err = m.log.Force(lsn) // subordinate force #1
			m.tr.LogForce(m.cfg.Site, rec.TID, rec.Type.String())
		}
		if !m.relockFamily(f) {
			m.unlockFamily(f)
			return
		}
		if err != nil {
			m.send(msg.From, &wire.Msg{Kind: wire.KNBVote, TID: msg.TID, Vote: wire.VoteNo})
			m.localAbort(f)
			m.unlockFamily(f)
			return
		}
		f.ph = phPrepared
		f.prepared = true
		f.nbState = wire.NBPrepared
		m.tr.PhaseBegin(m.cfg.Site, msg.TID, "prepared")
		m.send(msg.From, &wire.Msg{Kind: wire.KNBVote, TID: msg.TID, Vote: wire.VoteYes})
		// Change 2: do not wait forever — time out and take over.
		m.schedule(f, m.cfg.PromotionTimeout)
		m.unlockFamily(f)
	}
}

// onNBReplicate handles the replication phase at a subordinate: force
// the decision information, just as a prepare record is forced.
func (m *Manager) onNBReplicate(msg *wire.Msg) {
	f, created := m.lockOrCreateFamily(msg.TID.Family)
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
		m.unlockFamily(f)
		return
	}
	if f.nbState == wire.NBReplicated || f.ph == phReplicated {
		m.send(msg.From, &wire.Msg{Kind: wire.KNBReplicateAck, TID: msg.TID})
		m.unlockFamily(f)
		return
	}
	f.nbSites = msg.Sites
	f.commitQuorum = int(msg.CommitQuorum)
	f.abortQuorum = int(msg.AbortQuorum)
	f.nbVotes = msg.Votes
	rec := &wal.Record{
		Type:         wal.RecNBReplicate,
		TID:          msg.TID,
		Coordinator:  msg.From,
		Sites:        msg.Sites,
		CommitQuorum: msg.CommitQuorum,
		AbortQuorum:  msg.AbortQuorum,
		Votes:        msg.Votes,
	}
	m.unlockFamily(f)
	lsn, err := m.log.Append(rec)
	if err == nil {
		err = m.log.Force(lsn) // subordinate force #2
		m.tr.LogForce(m.cfg.Site, rec.TID, rec.Type.String())
	}
	live := m.relockFamily(f)
	defer m.unlockFamily(f)
	if !live || err != nil {
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
// is not a problem").
func (m *Manager) onNBOutcome(msg *wire.Msg) {
	commit := msg.Outcome == wire.OutcomeCommit
	f := m.lockFamily(msg.TID.Family)
	if f == nil {
		// Already resolved; re-acknowledge so the sender can forget.
		m.send(msg.From, &wire.Msg{Kind: wire.KNBOutcomeAck, TID: msg.TID})
		return
	}
	if f.ph == phCommitted || f.ph == phAborted {
		m.send(msg.From, &wire.Msg{Kind: wire.KNBOutcomeAck, TID: msg.TID})
		m.unlockFamily(f)
		return
	}
	parts := m.participants(f)
	m.tr.PhaseEnd(m.cfg.Site, msg.TID, "prepared")
	if commit {
		f.ph = phCommitted
	} else {
		f.ph = phAborted
		m.bumpStats(func(s *Stats) { s.Aborted++ })
	}
	if f.result != nil {
		// We were a coordinator (original or promoted) with a waiting
		// client.
		if commit {
			f.result.Set(wire.OutcomeCommit)
		} else {
			f.result.Set(wire.OutcomeAbort)
		}
	}
	recType := wal.RecCommit
	if !commit {
		recType = wal.RecAbort
	}
	m.log.Append(&wal.Record{Type: recType, TID: msg.TID}) //nolint:errcheck // lazy
	m.send(msg.From, &wire.Msg{Kind: wire.KNBOutcomeAck, TID: msg.TID})
	m.forget(f)
	m.unlockFamily(f)
	m.applyLocal(parts, msg.TID.Family, commit)
}

// onNBOutcomeAck drains the notify phase at whichever coordinator is
// driving it.
func (m *Manager) onNBOutcomeAck(msg *wire.Msg) {
	f := m.lockFamily(msg.TID.Family)
	if f == nil {
		return
	}
	defer m.unlockFamily(f)
	if f.ph != phCommitted && f.ph != phAborted {
		return
	}
	delete(f.acksPending, msg.From)
	if len(f.acksPending) == 0 {
		m.end(f)
	}
}
