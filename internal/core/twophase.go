package core

import (
	"fmt"
	"slices"

	"camelot/internal/rt"
	"camelot/internal/server"
	"camelot/internal/tid"
	"camelot/internal/trace"
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
	if !m.queue.Put(func() { m.commitTop(t, opts, fut) }) {
		return wire.OutcomeUnknown, ErrClosed
	}
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
// inquiry. It returns nil only when the family is aborted, or will be
// under presumed abort; once commitment has begun it refuses.
func (m *Manager) Abort(t tid.TID) error {
	m.chargeClientIPC()
	if !t.IsTop() {
		return m.abortChild(t)
	}
	fut := rt.NewFuture[bool](m.r)
	if !m.queue.Put(func() {
		f := m.lockFamily(t.Family)
		if f == nil {
			// Forgotten or never known here: aborted, or presumed so,
			// unless the resolved outcomes remember a commit.
			fut.Set(m.resolvedOutcome(t.Family) != wire.OutcomeCommit)
			return
		}
		defer m.unlockFamily(f)
		if f.ph == phActive {
			m.abortFamily(f)
		}
		fut.Set(f.ph == phAborted)
	}) {
		return ErrClosed
	}
	aborted, ok := fut.WaitTimeout(m.cfg.RetryInterval * 600)
	if !ok {
		return ErrClosed
	}
	if !aborted {
		return fmt.Errorf("core: abort after commitment began for %s", t)
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
	local := m.voteRound(parts, f.id, opts)

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
	m.beginCommit(f)
}

// commitLocal finishes a transaction with no remote participants: the
// best (and typical) case needs only one log write (Figure 1 step 9).
// Called and returns with f's lock held; the lock is released around
// the force.
func (m *Manager) commitLocal(f *family) {
	if f.localVote != wire.VoteReadOnly || f.opts.DisableReadOnlyOpt {
		// Read-only needs no log writes at all; anything else, whatever
		// protocol was asked for, is this one force.
		live, err := m.forceRecord(f, &wal.Record{Type: wal.RecCommit, TID: tid.Top(f.id)})
		if !live || err != nil {
			// A failed force means the log has fail-stopped and this site
			// is going down. The commit record may already be durable — the
			// write happens before the acknowledgement — so presuming abort
			// here would lie to a client about a transaction recovery will
			// replay as committed. Leave the family unresolved: Close
			// reports it undetermined and recovery finishes the decision.
			return
		}
	}
	m.commitAndForget(f, nil)
}

// onCommitAck handles one outcome acknowledgement, standalone or
// piggybacked, under every protocol. It counts only at the site driving
// the family's notify phase — the original coordinator, or a promoted
// one — and only from a site whose ack is still owed: a duplicate, a
// stray, or an ack that reaches a subordinate's copy of the family
// changes nothing. After the last one the site writes an END record
// and may forget the transaction.
func (m *Manager) onCommitAck(from tid.SiteID, t tid.TID) {
	f := m.lockFamily(t.Family)
	if f == nil {
		return
	}
	defer m.unlockFamily(f)
	i, owed := slices.BinarySearch(f.acksPending, from)
	if !owed {
		return
	}
	f.acksPending = slices.Delete(f.acksPending, i, i+1)
	if len(f.acksPending) == 0 {
		m.end(f)
	}
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

// onOutcome2PC handles COMMIT or ABORT at a subordinate.
func (m *Manager) onOutcome2PC(msg *wire.Msg) {
	commit := msg.Kind == wire.KCommit
	f := m.lockFamily(msg.TID.Family)
	if f == nil {
		// Already resolved and forgotten; the coordinator's COMMIT
		// was a retry, so its ack was lost: acknowledge again.
		if commit {
			m.ackNow(msg.From, msg.TID)
		}
		return
	}
	if f.coord && f.opts.Protocol != wire.Paxos {
		m.unlockFamily(f)
		return
	}
	if f.ph == phCommitted && !f.coord && !f.promoted {
		// A re-sent COMMIT racing the first copy, whose thread has released
		// the lock to apply the outcome and will acknowledge for both.
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
	f.ph = phCommitted
	m.tr.PhaseEnd(m.cfg.Site, msg.TID, "prepared")
	// A Paxos coordinator adopting a takeover leader's decision still
	// owes its client the outcome.
	f.answer(wire.OutcomeCommit)
	rec := &wal.Record{Type: wal.RecCommit, TID: msg.TID}
	ack := func() {
		if opts.ImmediateAck {
			m.send(coordinator, &wire.Msg{Kind: wire.KCommitAck, TID: msg.TID})
		} else {
			m.queueAck(coordinator, msg.TID)
		}
	}

	if opts.ForceSubCommit {
		// Unoptimized (and semi-optimized) path: force the commit record,
		// and only then drop locks and acknowledge.
		_, err := m.forceRecord(f, rec)
		m.unlockFamily(f)
		m.applyLocal(parts, f.id, true)
		if err == nil {
			ack()
		}
		if m.relockFamily(f) {
			m.forget(f)
		}
		m.unlockFamily(f)
		return
	}

	// Delayed-commit optimization: "the subordinate drops its locks
	// before writing a commit record." The ack waits until the lazily
	// written record is stable, because the coordinator must not forget
	// first.
	m.unlockFamily(f)
	m.applyLocal(parts, f.id, true)
	lsn, err := m.log.Append(rec)
	if m.relockFamily(f) {
		m.forget(f)
	}
	m.unlockFamily(f)
	if err != nil {
		return
	}
	m.r.Go("commit-ack-wait", func() {
		if m.log.WaitDurable(lsn) != nil || m.isClosed() {
			return
		}
		ack()
	})
}

// localAbort aborts the family at this subordinate site (f's lock
// held).
func (m *Manager) localAbort(f *family) {
	f.ph = phAborted
	m.tr.Count(m.cfg.Site, trace.Aborted, 1)
	f.answer(wire.OutcomeAbort)
	m.tr.PhaseEnd(m.cfg.Site, tid.Top(f.id), "prepared")
	m.log.Append(&wal.Record{Type: wal.RecAbort, TID: tid.Top(f.id)}) //nolint:errcheck // lazy under presumed abort
	m.releaseLocal(f, false)
	m.forget(f)
}

// --- shared helpers ---

// voteRound performs the local half of phase one: one IPC round to
// the joined servers, combining their votes.
func (m *Manager) voteRound(parts []server.Participant, fid tid.FamilyID, opts Options) wire.Vote {
	if len(parts) == 0 {
		if opts.DisableReadOnlyOpt {
			return wire.VoteYes
		}
		return wire.VoteReadOnly
	}
	// Identical parallel operations are assumed to proceed in
	// parallel (§4.2): one IPC round covers all local servers.
	m.tr.Count(m.cfg.Site, trace.IPCs, 1)
	rt.Charge(m.r, m.cfg.Kernel, m.cfg.Params.LocalIPCServer+m.cfg.Params.KernelCPU)
	combined := wire.VoteReadOnly
	for _, p := range parts {
		switch p.Vote(fid) {
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

// participants snapshots the family's joined servers in name order,
// so vote rounds and releases can run without holding the family lock.
func (m *Manager) participants(f *family) []server.Participant {
	return slices.Clone(f.participants)
}

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
