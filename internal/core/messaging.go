package core

import (
	"slices"
	"time"

	"camelot/internal/rt"
	"camelot/internal/tid"
	"camelot/internal/trace"
	"camelot/internal/wire"
)

// ackBatch is the delayed commit-acks owed to one site since the batch
// opened. Its pointer is its identity: the deadline armed at the opening
// sends this batch and no later one to the same site, and two batches
// can open at one virtual instant, so no timestamp would tell them
// apart.
type ackBatch struct {
	tids     []tid.TID
	deadline rt.Timer
}

// send transmits one datagram. Delayed commit-acks owed to the same
// site ride it (§3.2's piggybacking), as many as fit one datagram
// (wire.AckRoom). A ride that takes the whole batch calls off its
// deadline; the rest of a larger batch stays under it and leaves by the
// next datagram or the deadline, whichever comes first.
// Sequence stamping and the ack batches live under the ack component
// lock; callers may hold a family lock (family → component is the
// sanctioned order) but no caller may take a family lock while ackMu
// is held.
func (m *Manager) send(to tid.SiteID, msg *wire.Msg) {
	msg.From = m.cfg.Site
	msg.To = to
	var done *ackBatch
	rode := 0
	m.lockAttributed(m.ackMu, lockClassAcks)
	m.seq++
	msg.Seq = m.seq
	if b := m.pendingAcks[to]; b != nil && msg.Kind != wire.KCommitAck {
		rode = min(wire.AckRoom(msg), len(b.tids))
		if rode == len(b.tids) {
			delete(m.pendingAcks, to)
			done = b
		}
		if rode > 0 {
			msg.AckTIDs = b.tids[:rode:rode]
			b.tids = b.tids[rode:]
		}
	}
	m.ackMu.Unlock()
	if done != nil {
		done.deadline.Stop()
	}
	if rode > 0 {
		m.tr.Count(m.cfg.Site, trace.AcksPiggybacked, rode)
	}
	m.net.Send(m.cfg.Site, to, msg)
}

// fanout sends msg to every site in tos — as one multicast or as the
// serial unicast loop whose per-send jitter the multicast experiment
// measures. A destination owed delayed commit-acks gets its own copy
// through send, which attaches them; the rest share one marshalled
// message.
func (m *Manager) fanout(tos []tid.SiteID, msg *wire.Msg, multicast bool) {
	if len(tos) == 0 {
		return
	}
	msg.From = m.cfg.Site
	var owed []tid.SiteID
	m.lockAttributed(m.ackMu, lockClassAcks)
	m.seq++
	msg.Seq = m.seq
	for _, to := range tos {
		if m.pendingAcks[to] != nil {
			owed = append(owed, to)
		}
	}
	m.ackMu.Unlock()
	if len(owed) > 0 {
		rest := make([]tid.SiteID, 0, len(tos)-len(owed))
		for _, to := range tos {
			if slices.Contains(owed, to) {
				cp := *msg
				m.send(to, &cp)
			} else {
				rest = append(rest, to)
			}
		}
		if len(rest) == 0 {
			return
		}
		tos = rest
	}
	if multicast {
		m.net.Multicast(m.cfg.Site, tos, msg)
		return
	}
	m.net.SendAll(m.cfg.Site, tos, msg)
}

// queueAck owes coordinator a delayed commit-ack for t, under every
// protocol. The ack is cargo: it waits for a datagram going its way
// (send). The first ack of a batch arms the batch's deadline, so an ack
// leaves alone only after a full AckFlushInterval with nothing sent to
// its site — never later, which is the bound a coordinator's ack wait
// is derived from.
func (m *Manager) queueAck(coordinator tid.SiteID, t tid.TID) {
	m.lockAttributed(m.ackMu, lockClassAcks)
	b := m.pendingAcks[coordinator]
	if b == nil {
		b = &ackBatch{}
		m.pendingAcks[coordinator] = b
		b.deadline = m.r.After(m.cfg.AckFlushInterval, func() {
			m.pool.Post(func() { m.flushAcks(coordinator, b) })
		})
	}
	b.tids = append(b.tids, t)
	m.ackMu.Unlock()
}

// flushAcks is batch b's deadline: whatever of the batch no datagram to
// the site has taken goes as KCommitAck datagrams of its own, each as
// full as one datagram holds.
func (m *Manager) flushAcks(to tid.SiteID, b *ackBatch) {
	if m.isClosed() {
		return
	}
	m.lockAttributed(m.ackMu, lockClassAcks)
	if m.pendingAcks[to] != b {
		m.ackMu.Unlock()
		return
	}
	delete(m.pendingAcks, to)
	m.ackMu.Unlock()
	m.tr.Count(m.cfg.Site, trace.AcksStandalone, len(b.tids))
	for tids := b.tids; len(tids) > 0; {
		msg := &wire.Msg{Kind: wire.KCommitAck, AckTIDs: tids[:0]}
		n := min(wire.AckRoom(msg), len(tids))
		msg.AckTIDs, tids = tids[:n:n], tids[n:]
		m.send(to, msg)
	}
}

// ackNow acknowledges t to the site that just re-sent its outcome: the
// family is already resolved here, so the sender is on its retry timer
// and the answer must not wait for a ride.
func (m *Manager) ackNow(to tid.SiteID, t tid.TID) {
	m.send(to, &wire.Msg{Kind: wire.KCommitAck, TID: t})
}

// schedule (re)arms the family's single protocol timer; when it
// fires, tick re-examines the family's phase and retries whatever is
// outstanding — retransmits, inquiries, or non-blocking promotion.
// The caller holds f's lock.
func (m *Manager) schedule(f *family, d time.Duration) {
	if f.timer != nil {
		f.timer.Stop()
	}
	id := f.id
	f.timer = m.r.After(d, func() {
		m.pool.Post(func() { m.tick(id) })
	})
}

// retryFanout re-sends msg to tos as one timer-driven retransmit
// round, counted in the ledger's Retransmits (f's lock held).
// Fault-free runs never reach it: every answer arrives before the
// timer fires.
func (m *Manager) retryFanout(f *family, tos []tid.SiteID, msg *wire.Msg, what string) {
	if len(tos) == 0 {
		return
	}
	m.tr.Retry(m.cfg.Site, tid.Top(f.id), what, len(tos))
	m.fanout(tos, msg, f.opts.Multicast)
}

// inquire sends one outcome inquiry for f to the family's origin site
// (f's lock held).
func (m *Manager) inquire(f *family) {
	m.tr.Inquiry(m.cfg.Site, tid.Top(f.id))
	m.send(f.id.Origin(), &wire.Msg{Kind: wire.KInquire, TID: tid.Top(f.id)})
}

// tick is a stalled family's next step under every protocol: what its
// fired timer does, and what a family restored after a crash does
// first (Restore). One table; the protocol decides only where it
// behaves differently.
func (m *Manager) tick(id tid.FamilyID) {
	f := m.lockFamily(id)
	if f == nil {
		return
	}
	defer m.unlockFamily(f)
	if m.isClosed() {
		return
	}
	switch {
	case f.ph == phCommitted || f.ph == phAborted:
		// Decided — by the original, a promoted or a restored
		// coordinator: re-send the outcome to every site still owing an
		// acknowledgement.
		if len(f.acksPending) > 0 {
			m.retryOutcome(f)
		}
	case f.promoted:
		// A coordinator by takeover: drive the takeover again.
		if f.opts.Protocol == wire.Paxos {
			m.paxosRetryTakeover(f)
		} else {
			m.promotionSweep(f)
		}
	case f.coord && f.ph == phPreparing:
		// Re-send the vote request wherever a vote — or, under Paxos, an
		// acceptor's 2b — is missing: the request re-carries the leader's
		// 2a, and a prepared site answers a repeat by re-casting. A site
		// that never answers is presumed failed.
		f.attempts++
		if f.attempts > voteRetries {
			if f.opts.Protocol == wire.Paxos {
				// No unilateral abort: a full acceptor quorum may already
				// hold every Yes. Takeover aborts instead, where unseen
				// instances become Aborted by the quorum's testimony.
				m.paxosPromote(f)
			} else {
				m.abortFamily(f) // still safe: no commit point exists yet
			}
			return
		}
		var missing []tid.SiteID
		for _, s := range f.remoteSites {
			if _, voted := f.vote(s); !voted || (f.paxosIsAcceptor(s) && !slices.Contains(f.pax2b, s)) {
				missing = append(missing, s)
			}
		}
		m.retryFanout(f, missing, m.prepareMsg(f), "prepare")
		m.reschedule(f, m.cfg.RetryInterval)
	case f.coord && f.ph == phReplicating:
		// Past the replication phase's start a unilateral abort is no
		// longer safe — a commit quorum may already exist. If the
		// targets stop answering, fall back to the promotion
		// machinery, which decides by quorum.
		f.attempts++
		if f.attempts > voteRetries {
			m.promote(f)
			return
		}
		var missing []tid.SiteID
		for _, s := range f.replTargets {
			if !slices.Contains(f.replAcks, s) {
				missing = append(missing, s)
			}
		}
		m.retryFanout(f, missing, m.replicateMsg(f), "replicate")
		m.reschedule(f, m.cfg.RetryInterval)
	case f.ph == phPrepared || f.ph == phReplicated:
		// Prepared and hearing nothing. No coordinator test: a live
		// coordinator is never prepared, and a restored one resumes as a
		// participant (restoreInDoubt).
		switch f.opts.Protocol {
		case wire.TwoPhase:
			// Blocked: ask the coordinator, and keep asking.
			m.inquire(f)
			m.reschedule(f, m.cfg.InquireInterval)
		case wire.NonBlocking:
			m.promote(f) // change 2: become a coordinator
		case wire.Paxos:
			// Re-cast the vote twice (covers lost 2a/2b datagrams), then
			// take over.
			f.attempts++
			if f.attempts > 2 {
				m.paxosPromote(f)
				return
			}
			m.tr.Retry(m.cfg.Site, tid.Top(f.id), "recast", 1)
			if m.paxosCastVote(f, f.localVote) {
				m.reschedule(f, m.cfg.InquireInterval)
			}
		}
	case f.ph == phActive && !f.coord:
		// Orphan check: a remote family still active here long after
		// joining, or a Paxos descriptor serving its acceptor role alone.
		// If the coordinator is alive and still running the transaction
		// it ignores the inquiry; if the family is resolved the resolved
		// memory answers, and if it aborted or never heard of us presumed
		// abort does, releasing our locks and updates.
		m.inquire(f)
		m.reschedule(f, 4*m.cfg.InquireInterval)
	}
}

// prepareMsg builds the phase-one message for f: two-phase commit's
// bare request plus what the protocol adds to it, which is zero at a
// family whose protocol adds nothing — change 1's site list and quorum
// sizes for the replication phase, Paxos's site list and acceptor set
// (f's lock held). onPrepare copies the same fields back off it.
func (m *Manager) prepareMsg(f *family) *wire.Msg {
	msg := &wire.Msg{
		Kind: specs[f.opts.Protocol].prepare, TID: tid.Top(f.id), Flags: f.flags(),
		Sites: f.nbSites, CommitQuorum: uint16(f.commitQuorum), AbortQuorum: uint16(f.abortQuorum),
		Acceptors: f.paxAcceptors,
	}
	if len(f.paxAcceptors) > 1 {
		// The request is also the leader's ballot-0 2a to the acceptors
		// among its recipients (onPrepare).
		msg.Votes = []wire.SiteVote{{Site: m.cfg.Site, Vote: f.localVote}}
	}
	return msg
}

// replicateMsg builds the replication-phase message (f's lock held).
func (m *Manager) replicateMsg(f *family) *wire.Msg {
	return &wire.Msg{
		Kind:         wire.KNBReplicate,
		TID:          tid.Top(f.id),
		Sites:        f.nbSites,
		CommitQuorum: uint16(f.commitQuorum),
		AbortQuorum:  uint16(f.abortQuorum),
		Votes:        f.nbVotes,
		Flags:        f.flags(),
	}
}

// outcomeMsg builds the outcome notification for f's decision (f's
// lock held).
func (m *Manager) outcomeMsg(f *family) *wire.Msg {
	msg := &wire.Msg{TID: tid.Top(f.id), Flags: f.flags()}
	if f.opts.Protocol == wire.NonBlocking {
		msg.Kind = wire.KNBOutcome
		if f.ph == phCommitted {
			msg.Outcome = wire.OutcomeCommit
		} else {
			msg.Outcome = wire.OutcomeAbort
		}
	} else if f.ph == phCommitted {
		msg.Kind = wire.KCommit
	} else {
		msg.Kind = wire.KAbort
	}
	return msg
}

func (f *family) flags() uint8 {
	var fl uint8
	if f.opts.ForceSubCommit {
		fl |= wire.FlagForceSubCommit
	}
	if f.opts.ImmediateAck {
		fl |= wire.FlagImmediateAck
	}
	if f.opts.DisableReadOnlyOpt {
		fl |= wire.FlagNoReadOnlyOpt
	}
	return fl
}

// handle dispatches one inbound datagram on a pool thread.
func (m *Manager) handle(msg *wire.Msg) {
	if m.isClosed() {
		return
	}
	// Piggybacked commit-acks ride on any message (§3.2).
	for _, t := range msg.AckTIDs {
		m.onCommitAck(msg.From, t)
	}

	switch msg.Kind {
	case wire.KPrepare:
		m.onPrepare(msg, wire.TwoPhase)
	case wire.KVote:
		m.onVote(msg, wire.TwoPhase)
	case wire.KCommit, wire.KAbort:
		m.onOutcome2PC(msg)
	case wire.KCommitAck:
		// Pure ack batch: AckTIDs already processed; a bare TID in
		// the header is also an ack.
		if !msg.TID.IsZero() {
			m.onCommitAck(msg.From, msg.TID)
		}
	case wire.KInquire:
		m.onInquire(msg)
	case wire.KNBPrepare:
		m.onPrepare(msg, wire.NonBlocking)
	case wire.KNBVote:
		m.onVote(msg, wire.NonBlocking)
	case wire.KNBReplicate:
		m.onNBReplicate(msg)
	case wire.KNBReplicateAck:
		m.onNBReplicateAck(msg)
	case wire.KNBOutcome:
		m.onNBOutcome(msg)
	case wire.KNBStatusReq:
		m.onNBStatusReq(msg)
	case wire.KNBStatusResp:
		m.onNBStatusResp(msg)
	case wire.KNBAbortIntent:
		m.onNBAbortIntent(msg)
	case wire.KNBAbortIntentAck:
		m.onNBAbortIntentAck(msg)
	case wire.KChildCommit:
		m.onChildCommit(msg)
	case wire.KChildAbort:
		m.onChildAbort(msg)
	case wire.KPaxosPrepare:
		m.onPrepare(msg, wire.Paxos)
	case wire.KPaxosVote:
		m.onVote(msg, wire.Paxos)
	case wire.KPaxos2a:
		m.onPaxos2a(msg)
	case wire.KPaxos2b:
		m.onPaxos2b(msg)
	case wire.KPaxos1a:
		m.onPaxos1a(msg)
	case wire.KPaxos1b:
		m.onPaxos1b(msg)
	}
}
