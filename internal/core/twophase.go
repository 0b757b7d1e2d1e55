package core

import (
	"fmt"

	"camelot/internal/det"
	"camelot/internal/rt"
	"camelot/internal/server"
	"camelot/internal/tid"
	"camelot/internal/wal"
	"camelot/internal/wire"
)

// Commit runs commit-transaction (Figure 1 step 7). For a top-level
// transaction it executes the distributed protocol selected by opts
// and returns the outcome; for a nested transaction it merges the
// child into its parent. It returns ErrAborted when the decision is
// abort.
func (m *Manager) Commit(t tid.TID, opts Options) (wire.Outcome, error) {
	m.chargeClientIPC()
	if !t.IsTop() {
		return m.commitChild(t)
	}
	if err := opts.Protocol.Check(); err != nil {
		// Nothing to run, and guessing would commit under a protocol the
		// caller did not ask for: abort before any commit message is sent.
		m.Abort(t) //nolint:errcheck // the refusal below is the answer either way
		return wire.OutcomeAbort, fmt.Errorf("%w: %s: %v", ErrAborted, t, err)
	}
	fut := rt.NewFuture[wire.Outcome](m.r)
	m.queue.Put(func() { m.commitTop(t, opts, fut) })
	out, ok := fut.WaitTimeout(m.cfg.RetryInterval * 600)
	if !ok {
		return wire.OutcomeUnknown, ErrClosed
	}
	switch out {
	case wire.OutcomeCommit:
		return out, nil
	case wire.OutcomeAbort:
		return out, fmt.Errorf("%w: %s", ErrAborted, t)
	default:
		// The manager crashed mid-protocol; the decision may land
		// either way once the survivors (or recovery) finish it.
		return out, fmt.Errorf("%w: outcome of %s undetermined", ErrClosed, t)
	}
}

// Abort runs abort-transaction. For top-level transactions this is
// the abort protocol, which "can operate with incomplete knowledge
// about which sites are involved": known remote sites are notified,
// and any site missed will learn the outcome by presumed-abort
// inquiry.
func (m *Manager) Abort(t tid.TID) error {
	m.chargeClientIPC()
	if !t.IsTop() {
		return m.abortChild(t)
	}
	fut := rt.NewFuture[wire.Outcome](m.r)
	m.queue.Put(func() {
		f := m.lockFamily(t.Family)
		if f == nil {
			fut.Set(wire.OutcomeAbort)
			return
		}
		defer m.unlockFamily(f)
		if f.ph != phActive {
			fut.Set(wire.OutcomeAbort)
			return
		}
		m.abortFamily(f)
		fut.Set(wire.OutcomeAbort)
	})
	if _, ok := fut.WaitTimeout(m.cfg.RetryInterval * 600); !ok {
		return ErrClosed
	}
	return nil
}

// commitTop is the coordinator's commit-transaction entry, running on
// a pool thread.
func (m *Manager) commitTop(t tid.TID, opts Options, fut *rt.Future[wire.Outcome]) {
	f := m.lockFamily(t.Family)
	if f == nil || !f.coord || f.ph != phActive || m.isClosed() {
		if f != nil {
			m.unlockFamily(f)
		}
		fut.Set(wire.OutcomeAbort)
		return
	}
	f.opts = opts
	f.result = fut
	parts := m.participants(f)
	m.unlockFamily(f)

	// Phase one, local half: ask each local server whether it is
	// willing to commit (Figure 1 step 8).
	local := m.voteRound(parts, opts)

	live := m.relockFamily(f)
	defer m.unlockFamily(f)
	if !live || f.ph != phActive {
		return // aborted concurrently
	}
	f.localVote = local
	if local == wire.VoteNo {
		m.abortFamily(f)
		return
	}

	if len(f.remoteSites) == 0 {
		m.commitLocal(f)
		return
	}
	switch opts.Protocol {
	case wire.Paxos:
		m.paxosBeginCommit(f)
		return
	case wire.NonBlocking:
		m.nbBeginCommit(f)
		return
	}

	// Distributed two-phase commit, phase one.
	f.ph = phPreparing
	f.votes[m.cfg.Site] = local
	m.tr.PhaseBegin(m.cfg.Site, tid.Top(f.id), "prepare")
	m.fanout(sortedSites(f.remoteSites), m.prepareMsg(f), opts.Multicast)
	m.schedule(f, m.cfg.RetryInterval)
}

// commitLocal finishes a transaction with no remote participants: the
// best (and typical) case needs only one log write (Figure 1 step 9).
// Called and returns with f's lock held; the lock is released around
// the force.
func (m *Manager) commitLocal(f *family) {
	if f.localVote == wire.VoteReadOnly && !f.opts.DisableReadOnlyOpt {
		// Read-only: no log writes at all.
		f.ph = phCommitted
		m.bumpStats(func(s *Stats) { s.Committed++ })
		f.result.Set(wire.OutcomeCommit)
		m.releaseLocal(f, true)
		m.forget(f)
		return
	}
	rec := &wal.Record{Type: wal.RecCommit, TID: tid.Top(f.id)}
	m.unlockFamily(f)
	lsn, err := m.log.Append(rec)
	if err == nil {
		err = m.log.Force(lsn)
		m.tr.LogForce(m.cfg.Site, rec.TID, rec.Type.String())
	}
	if !m.relockFamily(f) {
		return
	}
	if err != nil {
		// The force failed, which means the log has fail-stopped and
		// this site is going down. The commit record may already be
		// durable — the write happens before the acknowledgement — so
		// presuming abort here would lie to a client about a
		// transaction recovery will replay as committed. Leave the
		// family unresolved: Close reports it undetermined and
		// recovery finishes the decision.
		return
	}
	f.ph = phCommitted
	m.bumpStats(func(s *Stats) { s.Committed++ })
	f.result.Set(wire.OutcomeCommit)
	m.releaseLocal(f, true)
	m.forget(f)
}

// onVote handles a subordinate's phase-one vote at the coordinator.
func (m *Manager) onVote(msg *wire.Msg) {
	f := m.lockFamily(msg.TID.Family)
	if f == nil {
		return
	}
	defer m.unlockFamily(f)
	if !f.coord || f.ph != phPreparing || f.opts.Protocol == wire.NonBlocking {
		return
	}
	f.votes[msg.From] = msg.Vote
	if msg.Vote == wire.VoteNo {
		m.abortFamily(f)
		return
	}
	//lint:ordered pure membership test; no effect depends on visit order
	for s := range f.remoteSites {
		if _, ok := f.votes[s]; !ok {
			return // still waiting
		}
	}
	m.decideCommit2PC(f)
}

// decideCommit2PC runs once every site has voted yes or read-only:
// force the commit record (the commit point), answer the application,
// then notify update subordinates. Read-only sites are "omitted from
// the second phase". Called and returns with f's lock held.
func (m *Manager) decideCommit2PC(f *family) {
	m.tr.PhaseEnd(m.cfg.Site, tid.Top(f.id), "prepare")
	//lint:ordered set construction; insertion order is unobservable
	for s, v := range f.votes {
		if s != m.cfg.Site && v == wire.VoteYes {
			f.updateSubs[s] = true
		}
	}
	if len(f.updateSubs) == 0 && f.localVote == wire.VoteReadOnly && !f.opts.DisableReadOnlyOpt {
		// Completely read-only distributed transaction: "the same
		// critical path performance as in two-phase commitment" with
		// no second phase and no log writes.
		f.ph = phCommitted
		m.bumpStats(func(s *Stats) { s.Committed++ })
		f.result.Set(wire.OutcomeCommit)
		m.releaseLocal(f, true)
		m.forget(f)
		return
	}

	rec := &wal.Record{Type: wal.RecCommit, TID: tid.Top(f.id), Sites: sortedSites(f.updateSubs)}
	m.unlockFamily(f)
	lsn, err := m.log.Append(rec)
	if err == nil {
		err = m.log.Force(lsn)
		m.tr.LogForce(m.cfg.Site, rec.TID, rec.Type.String())
	}
	if !m.relockFamily(f) {
		return
	}
	if err != nil {
		// Fail-stopped log, site going down. The commit record may
		// already be durable, so the outcome is genuinely undetermined
		// — do not presume abort (see commitLocal).
		return
	}
	f.ph = phCommitted
	m.bumpStats(func(s *Stats) { s.Committed++ })
	//lint:ordered set copy; insertion order is unobservable
	for s := range f.updateSubs {
		f.acksPending[s] = true
	}
	if len(f.acksPending) > 0 {
		m.tr.PhaseBegin(m.cfg.Site, tid.Top(f.id), "notify")
	}
	m.fanout(sortedSites(f.updateSubs), m.outcomeMsg(f), f.opts.Multicast)
	f.result.Set(wire.OutcomeCommit)
	m.releaseLocal(f, true)
	if len(f.acksPending) == 0 {
		m.end(f)
		return
	}
	m.schedule(f, m.ackWaitInterval())
}

// onCommitAck handles one commit acknowledgement (standalone or
// piggybacked). When the last subordinate's commit record is known
// stable the coordinator writes an END record and may forget the
// transaction.
func (m *Manager) onCommitAck(from tid.SiteID, t tid.TID) {
	f := m.lockFamily(t.Family)
	if f == nil {
		return
	}
	defer m.unlockFamily(f)
	if !f.coord || f.ph != phCommitted {
		return
	}
	delete(f.acksPending, from)
	if len(f.acksPending) == 0 {
		m.end(f)
	}
}

// end writes the END record and forgets the family (f's lock held).
func (m *Manager) end(f *family) {
	m.tr.PhaseEnd(m.cfg.Site, tid.Top(f.id), "notify")
	m.log.Append(&wal.Record{Type: wal.RecEnd, TID: tid.Top(f.id)}) //nolint:errcheck // lazy; loss is harmless
	m.forget(f)
}

// abortFamily is the coordinator-side abort path (client abort, local
// or remote No vote, protocol failure). Under presumed abort nothing
// is forced and no acks are awaited. Called with f's lock held.
func (m *Manager) abortFamily(f *family) {
	f.ph = phAborted
	m.bumpStats(func(s *Stats) { s.Aborted++ })
	m.tr.PhaseEnd(m.cfg.Site, tid.Top(f.id), "prepare")
	m.log.Append(&wal.Record{Type: wal.RecAbort, TID: tid.Top(f.id)}) //nolint:errcheck // lazy under presumed abort
	if f.result != nil {
		f.result.Set(wire.OutcomeAbort)
	}
	var notify []tid.SiteID
	for _, s := range det.SortedKeys(f.remoteSites) {
		if f.votes[s] != wire.VoteNo && f.votes[s] != wire.VoteReadOnly {
			notify = append(notify, s)
		}
	}
	m.fanout(notify, &wire.Msg{Kind: wire.KAbort, TID: tid.Top(f.id)}, f.opts.Multicast)
	m.releaseLocal(f, false)
	m.forget(f)
}

// onInquire answers a blocked subordinate's outcome inquiry. A
// transaction the coordinator has no record of was aborted — that is
// the presumed-abort rule.
func (m *Manager) onInquire(msg *wire.Msg) {
	f := m.lockFamily(msg.TID.Family)
	if f == nil {
		// Consult the resolved-outcome memory first; an unknown
		// transaction was aborted — the presumed-abort rule.
		if m.resolvedOutcome(msg.TID.Family) == wire.OutcomeCommit {
			m.send(msg.From, &wire.Msg{Kind: wire.KCommit, TID: msg.TID})
		} else {
			m.send(msg.From, &wire.Msg{Kind: wire.KAbort, TID: msg.TID})
		}
		return
	}
	defer m.unlockFamily(f)
	switch f.ph {
	case phAborted:
		m.send(msg.From, &wire.Msg{Kind: wire.KAbort, TID: msg.TID})
	case phCommitted:
		m.send(msg.From, m.outcomeMsg(f))
	default:
		// Still deciding; the subordinate will ask again.
	}
}

// --- subordinate side ---

// onPrepare handles phase one at a subordinate.
func (m *Manager) onPrepare(msg *wire.Msg) {
	f := m.lockFamily(msg.TID.Family)
	if f == nil {
		// No record of the transaction: perhaps we crashed since
		// joining, losing volatile updates. Voting No is the only
		// safe answer.
		m.send(msg.From, &wire.Msg{Kind: wire.KVote, TID: msg.TID, Vote: wire.VoteNo})
		return
	}
	if f.ph == phPrepared {
		// Duplicate prepare (our vote was lost): answer again.
		m.send(msg.From, &wire.Msg{Kind: wire.KVote, TID: msg.TID, Vote: wire.VoteYes})
		m.unlockFamily(f)
		return
	}
	if f.ph != phActive {
		m.unlockFamily(f)
		return
	}
	f.opts = optionsFromFlags(msg.Flags)
	parts := m.participants(f)
	m.unlockFamily(f)

	vote := m.voteRound(parts, f.opts)
	switch vote {
	case wire.VoteNo:
		m.relockFamily(f) // stale descriptors still answer (as before the refactor)
		m.send(msg.From, &wire.Msg{Kind: wire.KVote, TID: msg.TID, Vote: wire.VoteNo})
		m.localAbort(f)
		m.unlockFamily(f)
	case wire.VoteReadOnly:
		// Read-only optimization: vote, release, forget; we take no
		// part in phase two and write no log records.
		m.relockFamily(f)
		m.send(msg.From, &wire.Msg{Kind: wire.KVote, TID: msg.TID, Vote: wire.VoteReadOnly})
		f.ph = phCommitted
		m.releaseLocal(f, true)
		m.forget(f)
		m.unlockFamily(f)
	case wire.VoteYes:
		// Force the prepare record, then vote yes.
		rec := &wal.Record{
			Type:        wal.RecPrepare,
			TID:         msg.TID,
			Coordinator: msg.From,
		}
		lsn, err := m.log.Append(rec)
		if err == nil {
			err = m.log.Force(lsn)
			m.tr.LogForce(m.cfg.Site, rec.TID, rec.Type.String())
		}
		if !m.relockFamily(f) {
			m.unlockFamily(f)
			return
		}
		if err != nil {
			m.send(msg.From, &wire.Msg{Kind: wire.KVote, TID: msg.TID, Vote: wire.VoteNo})
			m.localAbort(f)
			m.unlockFamily(f)
			return
		}
		f.ph = phPrepared
		f.prepared = true
		m.tr.PhaseBegin(m.cfg.Site, msg.TID, "prepared")
		m.send(msg.From, &wire.Msg{Kind: wire.KVote, TID: msg.TID, Vote: wire.VoteYes})
		m.schedule(f, m.cfg.InquireInterval)
		m.unlockFamily(f)
	}
}

// onOutcome2PC handles COMMIT or ABORT at a subordinate.
func (m *Manager) onOutcome2PC(msg *wire.Msg) {
	commit := msg.Kind == wire.KCommit
	f := m.lockFamily(msg.TID.Family)
	if f == nil {
		// Already resolved and forgotten; the coordinator's COMMIT
		// was a retry, so its ack was lost: acknowledge again.
		if commit {
			m.queueAck(msg.From, msg.TID)
		}
		return
	}
	if f.coord && f.opts.Protocol != wire.Paxos {
		m.unlockFamily(f)
		return
	}
	if f.opts.Protocol == wire.Paxos && !f.prepared && !f.coord && f.localVote == wire.VoteReadOnly {
		// Read-only acceptor-hosting Paxos site: the acceptor role kept
		// the family alive after its ReadOnly vote (locks already
		// released at vote time), so the outcome only tells it to
		// forget. No record, no ack — the read-only optimization's
		// zero-log-write property holds. The vote check matters: a
		// still-active subordinate that never voted holds provisional
		// updates and must fall through to the abort path below to
		// undo them.
		if commit {
			f.ph = phCommitted
		} else {
			f.ph = phAborted
		}
		m.forget(f)
		m.unlockFamily(f)
		return
	}
	if !commit {
		m.localAbort(f)
		m.unlockFamily(f)
		return
	}
	opts := optionsFromFlags(msg.Flags)
	f.opts = opts
	coordinator := msg.From
	parts := m.participants(f)

	if !opts.ForceSubCommit {
		// Delayed-commit optimization: "the subordinate drops its
		// locks before writing a commit record." The ack waits until
		// the lazily written record is stable, because the
		// coordinator must not forget first.
		f.ph = phCommitted
		m.tr.PhaseEnd(m.cfg.Site, msg.TID, "prepared")
		if f.result != nil {
			// A Paxos coordinator adopting a takeover leader's decision
			// still owes its client the outcome.
			f.result.Set(wire.OutcomeCommit)
		}
		m.unlockFamily(f)
		m.applyLocal(parts, f.id, true)
		lsn, err := m.log.Append(&wal.Record{Type: wal.RecCommit, TID: msg.TID})
		if m.relockFamily(f) {
			m.forget(f)
		}
		m.unlockFamily(f)
		if err != nil {
			return
		}
		m.r.Go("commit-ack-wait", func() {
			if m.log.WaitDurable(lsn) != nil {
				return
			}
			if m.isClosed() {
				return
			}
			if opts.ImmediateAck {
				m.send(coordinator, &wire.Msg{Kind: wire.KCommitAck, TID: msg.TID})
			} else {
				m.queueAck(coordinator, msg.TID)
			}
		})
		return
	}

	// Unoptimized (and semi-optimized) path: force the commit record,
	// and only then drop locks and acknowledge.
	f.ph = phCommitted
	m.tr.PhaseEnd(m.cfg.Site, msg.TID, "prepared")
	if f.result != nil {
		f.result.Set(wire.OutcomeCommit)
	}
	m.unlockFamily(f)
	lsn, err := m.log.Append(&wal.Record{Type: wal.RecCommit, TID: msg.TID})
	if err == nil {
		err = m.log.Force(lsn)
		m.tr.LogForce(m.cfg.Site, msg.TID, wal.RecCommit.String())
	}
	m.applyLocal(parts, f.id, true)
	live := m.relockFamily(f)
	defer m.unlockFamily(f)
	if err == nil {
		if opts.ImmediateAck {
			m.send(coordinator, &wire.Msg{Kind: wire.KCommitAck, TID: msg.TID})
		} else {
			m.queueAck(coordinator, msg.TID)
		}
	}
	if live {
		m.forget(f)
	}
}

// localAbort aborts the family at this subordinate site (f's lock
// held).
func (m *Manager) localAbort(f *family) {
	f.ph = phAborted
	m.bumpStats(func(s *Stats) { s.Aborted++ })
	if f.result != nil {
		f.result.Set(wire.OutcomeAbort)
	}
	m.tr.PhaseEnd(m.cfg.Site, tid.Top(f.id), "prepared")
	m.log.Append(&wal.Record{Type: wal.RecAbort, TID: tid.Top(f.id)}) //nolint:errcheck // lazy under presumed abort
	m.releaseLocal(f, false)
	m.forget(f)
}

// --- shared helpers ---

// voteRound performs the local half of phase one: one IPC round to
// the joined servers, combining their votes.
func (m *Manager) voteRound(parts []server.Participant, opts Options) wire.Vote {
	if len(parts) == 0 {
		if opts.DisableReadOnlyOpt {
			return wire.VoteYes
		}
		return wire.VoteReadOnly
	}
	// Identical parallel operations are assumed to proceed in
	// parallel (§4.2): one IPC round covers all local servers.
	m.tr.IPC(m.cfg.Site)
	rt.Charge(m.r, m.cfg.Kernel, m.cfg.Params.LocalIPCServer+m.cfg.Params.KernelCPU)
	combined := wire.VoteReadOnly
	for _, p := range parts {
		switch p.Vote(0) { // family filled in by wrapper below
		case wire.VoteNo:
			return wire.VoteNo
		case wire.VoteYes:
			combined = wire.VoteYes
		case wire.VoteReadOnly:
			// Leaves combined unchanged: read-only participants never
			// strengthen the site's vote.
		}
	}
	if combined == wire.VoteReadOnly && opts.DisableReadOnlyOpt {
		return wire.VoteYes
	}
	return combined
}

// participants snapshots the family's joined servers as closures
// bound to the family id, so vote rounds and releases can run without
// holding the family lock.
func (m *Manager) participants(f *family) []server.Participant {
	out := make([]server.Participant, 0, len(f.participants))
	for _, name := range det.SortedKeys(f.participants) {
		out = append(out, boundParticipant{p: f.participants[name], f: f.id})
	}
	return out
}

// boundParticipant pins a participant to one family so callers do not
// thread the family id everywhere.
type boundParticipant struct {
	p server.Participant
	f tid.FamilyID
}

func (b boundParticipant) Name() string                { return b.p.Name() }
func (b boundParticipant) Vote(tid.FamilyID) wire.Vote { return b.p.Vote(b.f) }
func (b boundParticipant) CommitFamily(tid.FamilyID)   { b.p.CommitFamily(b.f) }
func (b boundParticipant) AbortFamily(tid.FamilyID)    { b.p.AbortFamily(b.f) }
func (b boundParticipant) CommitChild(c, p tid.TID)    { b.p.CommitChild(c, p) }
func (b boundParticipant) AbortChild(c tid.TID)        { b.p.AbortChild(c) }

// releaseLocal tells local servers to apply or undo and drop locks
// (Figure 1 step 11). The call is one-way — it is not on the
// completion path — so it runs on a fresh thread. f's lock is held.
func (m *Manager) releaseLocal(f *family, commit bool) {
	parts := m.participants(f)
	if len(parts) == 0 {
		return
	}
	m.tr.LockDrop(m.cfg.Site, tid.Top(f.id))
	oneWay := m.cfg.Params.LocalOneWay + m.cfg.Params.KernelCPU
	m.r.Go("drop-locks", func() {
		rt.Charge(m.r, m.cfg.Kernel, oneWay)
		m.applyLocal(parts, f.id, commit)
	})
}

// applyLocal synchronously applies the outcome at the local servers.
func (m *Manager) applyLocal(parts []server.Participant, f tid.FamilyID, commit bool) {
	for _, p := range parts {
		if commit {
			p.CommitFamily(f)
		} else {
			p.AbortFamily(f)
		}
	}
}

func optionsFromFlags(fl uint8) Options {
	return Options{
		ForceSubCommit:     fl&wire.FlagForceSubCommit != 0,
		ImmediateAck:       fl&wire.FlagImmediateAck != 0,
		DisableReadOnlyOpt: fl&wire.FlagNoReadOnlyOpt != 0,
	}
}

func sortedSites(set map[tid.SiteID]bool) []tid.SiteID {
	return det.SortedKeys(set)
}
