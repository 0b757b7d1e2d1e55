package core

import (
	"slices"
	"time"

	"camelot/internal/tid"
	"camelot/internal/trace"
	"camelot/internal/wal"
	"camelot/internal/wire"
)

// The commit skeleton: the steps every commitment protocol shares,
// written once. Presumed-abort two-phase commit (§3.2) is the skeleton
// itself. The non-blocking protocol is the skeleton plus the paper's
// five changes (§3.3), each marked "change n" where it lands. Paxos
// Commit (Gray & Lamport) is the skeleton with the coordinator's one
// commit record generalised to an acceptor quorum — at F=0 the same
// protocol. What a protocol merely names differently is a row of specs;
// where one behaves differently there is a switch on the protocol, and
// the fork leads to nonblocking.go, promotion.go or paxos.go.
//
//	step                    here                          forks to
//	begin commit            beginCommit                   paxosAccept (the leader's own acceptor)
//	subordinate phase one   onPrepare, castVote           paxosCastVote, the last-voter fold
//	vote collection         onVote, tallyVotes            nbBeginReplication, paxosMerge2b
//	decision                decideCommit, decideAbort     nbCheckCommitQuorum, paxosDecide, driveOutcome
//	notify and acks         awaitAcks, end, retryOutcome  onOutcome2PC, onNBOutcome
//	every forced write      forceRecord

// protocolSpec is what a protocol supplies to the skeleton as data.
type protocolSpec struct {
	prepare  wire.Kind   // the coordinator's phase-one request
	vote     wire.Kind   // a subordinate's answer to the coordinator
	prepared wal.RecType // the record that makes a Yes vote durable
	// forcedCommit: the coordinator's commit record is the commit point
	// and is forced. Otherwise a quorum is — NB's replicated intents,
	// Paxos's acceptors — recovery re-derives the decision from it, and
	// the record is lazy.
	forcedCommit bool
	// commitNamesSubs: the commit record lists the subordinates whose
	// acks are owed, for a recovered coordinator to resume the notify
	// phase from. NB resumes through promotion, which asks every site.
	commitNamesSubs bool
	// answerFirst: the client hears the outcome before the notify fan-out
	// leaves, not after. Virtual time sees the difference, so the
	// simulated timelines pin it.
	answerFirst bool
}

var specs = map[wire.Protocol]protocolSpec{
	wire.TwoPhase: {
		prepare: wire.KPrepare, vote: wire.KVote, prepared: wal.RecPrepare,
		forcedCommit: true, commitNamesSubs: true,
	},
	wire.NonBlocking: {
		prepare: wire.KNBPrepare, vote: wire.KNBVote, prepared: wal.RecPrepare,
		answerFirst: true,
	},
	wire.Paxos: {
		prepare: wire.KPaxosPrepare, vote: wire.KPaxosVote, prepared: wal.RecPaxosPrepare,
		commitNamesSubs: true, answerFirst: true,
	},
}

// forceRecord appends recs and makes them durable with one force: the
// only place this package waits on the log device. Called with f's
// lock held. The records are appended under it, so the log orders them
// with the state they describe, and it is released around the force.
// live reports whether f survived that window (the lock is held again
// either way). A non-nil err means the log has fail-stopped and the
// site is going down; the records may be durable all the same — the
// write precedes its acknowledgement — so no caller may presume them
// lost.
func (m *Manager) forceRecord(f *family, recs ...*wal.Record) (live bool, err error) {
	var lsn uint64
	for _, rec := range recs {
		if lsn, err = m.log.Append(rec); err != nil {
			break
		}
	}
	m.unlockFamily(f)
	if err == nil {
		err = m.log.Force(lsn)
		m.tr.LogForce(m.cfg.Site, recs[0].TID, recs[0].Type.String())
	}
	return m.relockFamily(f), err
}

// answer wakes the client waiting in Commit, if this site has one.
func (f *family) answer(out wire.Outcome) {
	if f.result != nil {
		f.result.Set(out)
	}
}

// --- coordinator: begin commit ---

// beginCommit starts the distributed protocol at the coordinator once
// its local vote is Yes or ReadOnly and there is a remote site to ask.
// Called and returns with f's lock held; the lock is released around
// the coordinator's own prepare force, where the protocol has one.
func (m *Manager) beginCommit(f *family) {
	f.setVote(m.cfg.Site, f.localVote)
	ownPrepare := false
	switch f.opts.Protocol {
	case wire.TwoPhase:
		// The commit record will be this coordinator's only force.
	case wire.NonBlocking:
		f.nbSites = m.allSites(f)
		// Quorum sizes satisfy Skeen's condition Qc + Qa > N, weighted
		// toward abort availability: commit needs a majority of intent
		// records, while the complementary abort quorum lets the largest
		// surviving minority that excludes commit still finish. With two
		// sites this means Qc=2, Qa=1 — a lone prepared subordinate can
		// abort after its coordinator dies.
		f.commitQuorum = len(f.nbSites)/2 + 1
		f.abortQuorum = len(f.nbSites) - f.commitQuorum + 1
		// Change 5: the coordinator prepares before sending the prepare
		// message.
		ownPrepare = f.localVote == wire.VoteYes
	case wire.Paxos:
		f.nbSites = m.allSites(f)
		f.paxAcceptors = paxosAcceptorSet(m.cfg.Site, f.nbSites, f.opts.PaxosF)
		// Durable own vote before it can be accepted elsewhere. At F=0 the
		// only acceptor is this site, whose batched accepted record
		// subsumes the vote — eliding the separate force here is what
		// makes the F=0 budget equal two-phase commit's.
		ownPrepare = len(f.paxAcceptors) > 1 && f.localVote == wire.VoteYes
	}
	if ownPrepare {
		live, err := m.forceRecord(f, m.preparedRecord(f, m.cfg.Site))
		if !live || err != nil || f.ph != phActive {
			// On a failed force the prepare record may be durable all the
			// same: recovery would resume this coordinator and the live
			// subordinates could still commit. The outcome is undetermined,
			// not abort — leave the family unresolved for Close to report.
			return
		}
	}
	f.ph = phPreparing
	m.tr.PhaseBegin(m.cfg.Site, tid.Top(f.id), "prepare")
	m.fanout(f.remoteSites, m.prepareMsg(f), f.opts.Multicast)
	if f.opts.Protocol == wire.Paxos {
		// The vote request was also the leader's ballot-0 2a (prepareMsg):
		// only the co-located acceptor is left to tell.
		if !m.paxosAccept(f, 0, []wire.SiteVote{{Site: m.cfg.Site, Vote: f.localVote}}) {
			return
		}
	}
	m.schedule(f, m.cfg.RetryInterval)
}

// allSites is every site of the transaction in site order, this one
// included (f's lock held).
func (m *Manager) allSites(f *family) []tid.SiteID {
	sites := append(slices.Clip(f.remoteSites), m.cfg.Site)
	slices.Sort(sites)
	return sites
}

// preparedRecord is the record that makes this site's Yes vote durable:
// who coordinates, plus whatever the protocol's prepare message added
// to two-phase commit's — fields a protocol does not use are zero at
// the family and on the log (f's lock held).
func (m *Manager) preparedRecord(f *family, coordinator tid.SiteID) *wal.Record {
	return &wal.Record{
		Type: specs[f.opts.Protocol].prepared, TID: tid.Top(f.id), Coordinator: coordinator,
		Sites: f.nbSites, CommitQuorum: uint16(f.commitQuorum), AbortQuorum: uint16(f.abortQuorum),
		Acceptors: f.paxAcceptors,
	}
}

// --- subordinate: phase one ---

// onPrepare handles phase one at a subordinate; p is the protocol whose
// prepare kind msg carries.
func (m *Manager) onPrepare(msg *wire.Msg, p wire.Protocol) {
	if p == wire.Paxos && len(msg.Votes) > 0 && slices.Contains(msg.Acceptors, m.cfg.Site) {
		// The request doubles as the leader's ballot-0 2a. The acceptor
		// goes first and does not depend on the RM: a site that lost its
		// RM state still accepts here and answers No below.
		m.onPaxos2a(msg)
	}
	f := m.lockFamily(msg.TID.Family)
	if f == nil {
		// No record of the transaction: perhaps we crashed since joining,
		// losing volatile updates. Voting No is the only safe answer.
		m.sendVote(msg.From, p, msg.TID, wire.VoteNo)
		return
	}
	defer m.unlockFamily(f)
	if f.ph == phPrepared || f.ph == phReplicated {
		// Duplicate request (our answer was lost somewhere): answer again.
		// Every site waiting here voted Yes, but for a Paxos read-only
		// acceptor host.
		vote := wire.VoteYes
		if f.localVote == wire.VoteReadOnly {
			vote = wire.VoteReadOnly
		}
		m.castVote(f, msg.From, vote)
		return
	}
	if f.ph != phActive || f.paxVoting {
		// Resolved — or, under Paxos, a duplicate of the request still
		// being answered: its vote round must not run twice, and its vote
		// is not durable yet, so there is nothing to re-cast.
		return
	}
	if f.paxAcceptorOnly {
		// The descriptor exists only because an acceptor message created
		// it; the RM state is gone. Answer No but keep serving the
		// acceptor role — do not abort the family.
		m.sendVote(msg.From, p, msg.TID, wire.VoteNo)
		return
	}
	opts := optionsFromFlags(msg.Flags)
	opts.Protocol = p
	f.opts = opts
	// What the protocol's prepare adds to two-phase commit's (prepareMsg);
	// absent fields are zero.
	f.nbSites, f.paxAcceptors = msg.Sites, msg.Acceptors
	f.commitQuorum, f.abortQuorum = int(msg.CommitQuorum), int(msg.AbortQuorum)
	f.paxVoting = p == wire.Paxos
	parts := m.participants(f)
	m.unlockFamily(f)

	vote := m.voteRound(parts, f.id, opts)

	live := m.relockFamily(f)
	if vote == wire.VoteNo {
		// Stale descriptors still answer: the No can only confirm an abort.
		m.sendVote(msg.From, p, msg.TID, wire.VoteNo)
		m.localAbort(f)
		return
	}
	if !live {
		return // aborted during the vote round: nothing to vote on
	}
	f.localVote = vote
	if vote == wire.VoteReadOnly {
		// Read-only optimization: vote, release, forget; we take no part
		// in phase two and write no log records.
		if p == wire.Paxos && f.paxosIsAcceptor(m.cfg.Site) {
			// Stay alive for the acceptor role; prepared stays false,
			// which marks that the outcome only tells us to forget.
			f.ph = phPrepared
			if m.castVote(f, msg.From, vote) {
				m.releaseLocal(f, true)
				m.schedule(f, m.cfg.InquireInterval)
			}
			return
		}
		f.ph = phCommitted
		m.castVote(f, msg.From, vote)
		m.releaseLocal(f, true)
		m.forget(f)
		return
	}

	// Force the prepared record, then vote yes. A last-voting Paxos
	// RM-acceptor completes its co-located acceptor's batch with this
	// very vote, so the accepted record rides the same force. Both are
	// appended under the lock: the log then orders the acceptance before
	// any promise made while the force is in flight, whose own force
	// covers it before a 1b can report it.
	recs := []*wal.Record{m.preparedRecord(f, msg.From)}
	fold := p == wire.Paxos && m.paxosLastVoter(f)
	var gen uint64
	if fold {
		f.paxosTake(wire.PaxosAccepted{Site: m.cfg.Site, Vote: wire.VoteYes})
		f.paxFlushing = true
		gen = f.paxGen
		recs = append(recs, m.paxosAcceptedRecord(f))
	}
	live, err := m.forceRecord(f, recs...)
	if fold {
		f.paxFlushing = false
	}
	if !live {
		return
	}
	if err != nil {
		m.sendVote(msg.From, p, msg.TID, wire.VoteNo)
		m.localAbort(f)
		return
	}
	f.ph = phPrepared
	f.prepared = true
	m.tr.PhaseBegin(m.cfg.Site, msg.TID, "prepared")
	wait := m.cfg.InquireInterval
	if p == wire.NonBlocking {
		f.nbState = wire.NBPrepared
		// Change 2: do not wait forever — time out and take over.
		wait = m.cfg.PromotionTimeout
	}
	if fold {
		// The 2b tells the leader everything a 2a would (onPaxos2b), so
		// only the other acceptors need one.
		if f.paxGen == gen {
			f.paxAccForced = true
		}
		m.paxosSend2a(f, wire.VoteYes, msg.From)
		live = m.paxosAcceptorFlush(f)
	} else {
		live = m.castVote(f, msg.From, wire.VoteYes)
	}
	if live {
		m.schedule(f, wait)
	}
}

// sendVote sends a phase-one answer of p's vote kind straight to the
// coordinator.
func (m *Manager) sendVote(to tid.SiteID, p wire.Protocol, t tid.TID, vote wire.Vote) {
	m.send(to, &wire.Msg{Kind: specs[p].vote, TID: t, Vote: vote})
}

// castVote delivers this site's Yes or ReadOnly (f's lock held). Under
// two-phase and non-blocking commit the coordinator collects the votes.
// A Paxos RM is the ballot-0 proposer of its own instance and casts
// straight to the acceptors, ReadOnly included: sent only to the leader
// it could be lost with the leader, and a takeover would choose Aborted
// for the instance — contradicting a commit the leader may already have
// announced. A co-located acceptor may release the lock for its force;
// false means f died meanwhile.
func (m *Manager) castVote(f *family, coordinator tid.SiteID, vote wire.Vote) bool {
	if f.opts.Protocol == wire.Paxos {
		return m.paxosCastVote(f, vote)
	}
	m.sendVote(coordinator, f.opts.Protocol, tid.Top(f.id), vote)
	return true
}

// --- coordinator: vote collection ---

// onVote collects one phase-one answer at the coordinator; p is the
// protocol whose vote kind msg carries.
func (m *Manager) onVote(msg *wire.Msg, p wire.Protocol) {
	f := m.lockFamily(msg.TID.Family)
	if f == nil {
		return
	}
	defer m.unlockFamily(f)
	if !f.coord || f.ph != phPreparing || f.opts.Protocol != p {
		// Not collecting — or a vote of another protocol's kind, which
		// must not count: a stray two-phase Yes would otherwise commit a
		// Paxos family no acceptor has heard of.
		return
	}
	if p == wire.Paxos && msg.Vote != wire.VoteNo {
		return // Yes and ReadOnly reach a Paxos leader through the acceptors
	}
	f.setVote(msg.From, msg.Vote)
	if msg.Vote == wire.VoteNo {
		if p == wire.Paxos {
			// A No never reaches the acceptors — the RM is the sole
			// ballot-0 proposer for its instance, so skipping them cannot
			// contradict a chosen value; a takeover leader that finds the
			// instance empty chooses Aborted, agreeing with us.
			m.paxosDecide(f, false, msg.From)
		} else {
			m.abortFamily(f)
		}
		return
	}
	for _, s := range f.remoteSites {
		if _, ok := f.vote(s); !ok {
			return // still waiting
		}
	}
	if m.tallyVotes(f) {
		m.commitAndForget(f, nil)
	} else if p == wire.NonBlocking {
		m.nbBeginReplication(f) // change 3
	} else {
		m.decideCommit(f, f.updateSubs, nil)
	}
}

// tallyVotes closes phase one once every vote is in and none is No: it
// fills f.updateSubs — read-only sites are "omitted from the second
// phase" — and reports whether the whole transaction was read-only,
// which needs no second phase and no log writes (f's lock held).
func (m *Manager) tallyVotes(f *family) (readOnly bool) {
	m.tr.PhaseEnd(m.cfg.Site, tid.Top(f.id), "prepare")
	for _, sv := range f.votes {
		if sv.Site != m.cfg.Site && sv.Vote == wire.VoteYes {
			f.updateSubs = unionSites(f.updateSubs, sv.Site)
		}
	}
	own, _ := f.vote(m.cfg.Site)
	return len(f.updateSubs) == 0 && own == wire.VoteReadOnly && !f.opts.DisableReadOnlyOpt
}

// --- decision ---

// commitAndForget finishes a commit nobody has to acknowledge — a local
// transaction, or a completely read-only one: answer, release, forget.
// tell lists sites that only need to hear so they can forget too (f's
// lock held).
func (m *Manager) commitAndForget(f *family, tell []tid.SiteID) {
	f.ph = phCommitted
	m.tr.Count(m.cfg.Site, trace.Committed, 1)
	f.answer(wire.OutcomeCommit)
	m.fanout(tell, m.outcomeMsg(f), f.opts.Multicast)
	m.releaseLocal(f, true)
	m.forget(f)
}

// decideCommit passes the commit point — the forced commit record, if
// the protocol has not already passed it at a quorum — and runs the
// notify phase: notify lists the sites whose acknowledgement is owed
// before this site may forget, tell those that only need to hear.
// Called and returns with f's lock held; released around the force.
func (m *Manager) decideCommit(f *family, notify, tell []tid.SiteID) {
	top := tid.Top(f.id)
	spec := specs[f.opts.Protocol]
	rec := &wal.Record{Type: wal.RecCommit, TID: top}
	if spec.commitNamesSubs {
		rec.Sites = notify
	}
	if spec.forcedCommit {
		if live, err := m.forceRecord(f, rec); !live || err != nil {
			// On a failed force the commit record may be durable all the
			// same, so the outcome is undetermined — do not presume abort.
			// Close reports it so and recovery finishes the decision.
			return
		}
	}
	f.ph = phCommitted
	m.tr.Count(m.cfg.Site, trace.Committed, 1)
	if !spec.forcedCommit {
		m.log.Append(rec) //nolint:errcheck // lazy: the quorum is the commit point
	}
	if spec.answerFirst {
		f.answer(wire.OutcomeCommit)
	}
	f.acksPending = unionSites(f.acksPending, notify...)
	if len(notify) > 0 {
		m.tr.PhaseBegin(m.cfg.Site, top, "notify")
	}
	m.fanout(notify, m.outcomeMsg(f), f.opts.Multicast)
	m.fanout(tell, m.outcomeMsg(f), f.opts.Multicast)
	if !spec.answerFirst {
		f.answer(wire.OutcomeCommit)
	}
	m.releaseLocal(f, true)
	m.awaitAcks(f, m.ackWaitInterval())
}

// abortFamily is the coordinator-side abort path (client abort, local
// or remote No vote, no answer to the prepare): every remote site that
// has not itself voted No or ReadOnly is told. Called with f's lock
// held.
func (m *Manager) abortFamily(f *family) {
	var notify []tid.SiteID
	for _, s := range f.remoteSites {
		if v, _ := f.vote(s); v != wire.VoteNo && v != wire.VoteReadOnly {
			notify = append(notify, s)
		}
	}
	// Change 4: once its prepares are out, a non-blocking transaction's
	// abort is acknowledged like its commit.
	m.decideAbort(f, notify, f.opts.Protocol == wire.NonBlocking && f.ph == phPreparing)
}

// decideAbort aborts at the site driving the decision and tells notify.
// Abort is only ever decided while no commit point can exist, so the
// record is lazy. Unacknowledged, it is presumed abort: a bare ABORT
// notice, nothing awaited, and any site missed learns the outcome by
// inquiry. Acknowledged (change 4), no transaction manager forgets
// until every site has the outcome. Called with f's lock held.
func (m *Manager) decideAbort(f *family, notify []tid.SiteID, acked bool) {
	top := tid.Top(f.id)
	f.ph = phAborted
	m.tr.Count(m.cfg.Site, trace.Aborted, 1)
	m.tr.PhaseEnd(m.cfg.Site, top, "prepare")
	m.tr.PhaseEnd(m.cfg.Site, top, "replicate")
	m.log.Append(&wal.Record{Type: wal.RecAbort, TID: top}) //nolint:errcheck // lazy under presumed abort
	f.answer(wire.OutcomeAbort)
	msg := &wire.Msg{Kind: wire.KAbort, TID: top}
	if acked {
		f.acksPending = unionSites(f.acksPending, notify...)
		msg = m.outcomeMsg(f)
	}
	m.fanout(notify, msg, f.opts.Multicast)
	m.releaseLocal(f, false)
	if acked {
		m.awaitAcks(f, m.ackWaitInterval())
	} else {
		m.forget(f)
	}
}

// --- notify and acks ---

// awaitAcks ends the transaction at once if no acknowledgement is
// owed; otherwise it arms the timer whose ticks re-send the outcome
// (f's lock held).
func (m *Manager) awaitAcks(f *family, wait time.Duration) {
	if len(f.acksPending) == 0 {
		m.end(f)
		return
	}
	m.schedule(f, wait)
}

// end writes the END record and forgets the family (f's lock held).
func (m *Manager) end(f *family) {
	m.tr.PhaseEnd(m.cfg.Site, tid.Top(f.id), "notify")
	m.log.Append(&wal.Record{Type: wal.RecEnd, TID: tid.Top(f.id)}) //nolint:errcheck // lazy; loss is harmless
	m.forget(f)
}

// retryOutcome is one timer-driven round of the notify phase: re-send
// the outcome to the sites that have not acknowledged (f's lock held).
func (m *Manager) retryOutcome(f *family) {
	m.retryFanout(f, f.acksPending, m.outcomeMsg(f), "outcome")
	m.reschedule(f, m.cfg.RetryInterval)
}
