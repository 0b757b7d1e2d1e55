package core

// Paxos Commit (Gray & Lamport, "Consensus on Transaction Commit"):
// one Paxos consensus instance per participant vote, all instances
// sharing one acceptor set of 2F+1 sites drawn from the participants
// themselves. The fault-free path uses the ballot-0 optimization —
// each RM is the sole proposer at ballot 0 for its own instance, so
// it casts its vote straight to the acceptors as a phase 2a message,
// skipping phase 1 entirely. One acceptor is co-located with the
// coordinator, whose 2b "message" is a local merge; and an acceptor
// batches every instance of the transaction into a single accepted
// record, so the whole vote set costs it one log force and one 2b
// datagram. At F=0 the sole acceptor is the coordinator itself and
// the message and force budgets degenerate to exactly two-phase
// commit's delayed-commit budget.
//
// Every other acceptor is co-located with an RM too, and three folds
// charge for that only once (DESIGN.md §10, "Co-location folds"): the
// vote request carries the leader's 2a; an RM-acceptor that votes last
// forces its prepared and accepted records together and skips the 2a
// to the leader; and the leader reads a ballot-0 2b as its sender's
// 2a.
//
// Takeover replaces 2PC's blocking inquiry: any prepared participant
// that stops hearing progress promotes itself to leader, runs phase 1
// against the acceptors at a ballot above everything it has seen, and
// decides from the quorum's accepted state — Aborted for instances no
// acceptor has a value for. The decision is therefore reachable
// whenever any acceptor quorum is alive, regardless of which single
// site (including the coordinator) has crashed.

import (
	"slices"
	"sort"

	"camelot/internal/tid"
	"camelot/internal/trace"
	"camelot/internal/wal"
	"camelot/internal/wire"
)

// paxosBallot packs a takeover ballot: round in the high half, the
// proposing site in the low half, so distinct sites never collide and
// higher rounds always dominate. Ballot 0 is reserved for the RMs'
// own fault-free votes.
func paxosBallot(round uint32, site tid.SiteID) uint64 {
	return uint64(round)<<32 | uint64(uint32(site))
}

func paxosBallotRound(b uint64) uint32 { return uint32(b >> 32) }

// paxosQuorum is the acceptor majority.
func (m *Manager) paxosQuorum(f *family) int { return len(f.paxAcceptors)/2 + 1 }

func (f *family) paxosIsAcceptor(s tid.SiteID) bool { return slices.Contains(f.paxAcceptors, s) }

// paxosTake records one instance's accepted value in the co-located
// acceptor's batch, which is then no longer the batch on the log (f's
// lock held).
func (f *family) paxosTake(a wire.PaxosAccepted) {
	f.paxAcc = putSite(f.paxAcc, a, acceptedSite)
	f.paxGen++
	f.paxAccForced = false
}

// paxosLeaderSite maps a ballot to the site acting as leader for it:
// ballot 0 belongs to the original coordinator, any other ballot to
// the site packed into its low half.
func (m *Manager) paxosLeaderSite(ballot uint64, f *family) tid.SiteID {
	if ballot == 0 {
		return f.id.Origin()
	}
	return tid.SiteID(uint32(ballot))
}

// paxosAcceptorSet picks the transaction's acceptors: the coordinator
// first (co-location makes its own vote's 2a and the acceptor's 2b
// local calls), then the lowest-numbered other participants until
// 2F+1 — capped at the participant count, since Camelot hosts
// acceptors only on sites already in the transaction.
func paxosAcceptorSet(coord tid.SiteID, sites []tid.SiteID, fF int) []tid.SiteID {
	want := 2*fF + 1
	if want > len(sites) {
		want = len(sites)
	}
	out := make([]tid.SiteID, 0, want)
	out = append(out, coord)
	for _, s := range sites {
		if len(out) == want {
			break
		}
		if s != coord {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// paxosCastVote sends this RM's ballot-0 vote to every acceptor — the
// co-located one by a direct call, the rest as 2a datagrams. Returns
// false if the family died during a local acceptor force (lock then
// released by the caller's own path).
func (m *Manager) paxosCastVote(f *family, vote wire.Vote) bool {
	m.paxosSend2a(f, vote, 0)
	if f.paxosIsAcceptor(m.cfg.Site) {
		return m.paxosAccept(f, 0, []wire.SiteVote{{Site: m.cfg.Site, Vote: vote}})
	}
	return true
}

// paxosSend2a sends this RM's ballot-0 vote as a 2a datagram to every
// remote acceptor but except (zero: to all of them). The 2a carries
// the site and acceptor lists so an acceptor that has never heard of
// the transaction is still self-sufficient (f's lock held).
func (m *Manager) paxosSend2a(f *family, vote wire.Vote, except tid.SiteID) {
	m.fanout(withoutSites(f.paxAcceptors, m.cfg.Site, except), &wire.Msg{
		Kind: wire.KPaxos2a, TID: tid.Top(f.id),
		Votes:     []wire.SiteVote{{Site: m.cfg.Site, Vote: vote}},
		Sites:     f.nbSites,
		Acceptors: f.paxAcceptors,
	}, f.opts.Multicast)
}

// paxosAccept runs the acceptor's phase 2b logic for a batch of
// instance values at one ballot (f's lock held; may release it for
// the accepted-record force). Returns false if the family died during
// the force.
func (m *Manager) paxosAccept(f *family, ballot uint64, votes []wire.SiteVote) bool {
	if ballot < f.paxPromised {
		return true
	}
	for _, sv := range votes {
		cur, ok := lookup(f.paxAcc, sv.Site, acceptedSite)
		if ok && (ballot < cur.Ballot || (ballot == cur.Ballot && cur.Vote == sv.Vote)) {
			continue
		}
		f.paxosTake(wire.PaxosAccepted{Site: sv.Site, Ballot: ballot, Vote: sv.Vote})
	}
	return m.paxosAcceptorFlush(f)
}

// paxosAcceptorFlush forces the batched accepted record once values
// for every instance are in hand, then sends the batched 2b to the
// leader. The force batching — one record covering all participants'
// votes — is what holds the acceptor to one log force per
// transaction. Called and returns with f's lock held (released around
// the force); returns false if the family died meanwhile.
func (m *Manager) paxosAcceptorFlush(f *family) bool {
	if !f.paxosIsAcceptor(m.cfg.Site) || len(f.nbSites) == 0 {
		return true
	}
	for _, s := range f.nbSites {
		if _, ok := lookup(f.paxAcc, s, acceptedSite); !ok {
			return true // batch incomplete; wait for the rest
		}
	}
	if !f.paxAccForced {
		if f.paxFlushing {
			// The force in flight re-reads the batch when it lands and
			// sends the 2b, or flushes again if the batch has moved.
			return true
		}
		gen := f.paxGen
		if rec := m.paxosAcceptedRecord(f); rec != nil {
			f.paxFlushing = true
			live, err := m.forceRecord(f, rec)
			f.paxFlushing = false
			if !live {
				return false
			}
			if err != nil {
				// Fail-stopped log: never report a non-durable acceptance.
				return true
			}
			if f.paxGen != gen {
				// Another worker mutated the batch while the lock was
				// free; the record just forced is stale.
				return m.paxosAcceptorFlush(f)
			}
		}
		// An all-read-only batch skips the force: ReadOnly votes carry
		// no redo obligation, so the read-only optimization's
		// zero-log-write property survives the acceptor role.
		f.paxAccForced = true
	}
	m.paxosSend2b(f)
	return true
}

// paxosBatch is the acceptor's complete batch, one value per instance
// in site order, and the highest ballot among them (f's lock held).
func paxosBatch(f *family) (ballot uint64, votes []wire.SiteVote) {
	votes = make([]wire.SiteVote, 0, len(f.nbSites))
	for _, s := range f.nbSites {
		a, _ := lookup(f.paxAcc, s, acceptedSite)
		if a.Ballot > ballot {
			ballot = a.Ballot
		}
		votes = append(votes, wire.SiteVote{Site: a.Site, Vote: a.Vote})
	}
	return ballot, votes
}

// paxosAcceptedRecord builds the batched accepted record for f's
// complete batch, or nil for an all-read-only one, which needs no
// record (f's lock held).
func (m *Manager) paxosAcceptedRecord(f *family) *wal.Record {
	ballot, votes := paxosBatch(f)
	allRO := true
	for _, sv := range votes {
		if sv.Vote != wire.VoteReadOnly {
			allRO = false
		}
	}
	if allRO {
		return nil
	}
	return &wal.Record{
		Type: wal.RecPaxosAccept, TID: tid.Top(f.id), Ballot: ballot,
		Sites: f.nbSites, Acceptors: f.paxAcceptors, Votes: votes,
	}
}

// paxosSend2b sends this acceptor's batched 2b to the current
// leader (f's lock held).
func (m *Manager) paxosSend2b(f *family) {
	ballot, votes := paxosBatch(f)
	leader := m.paxosLeaderSite(ballot, f)
	if leader == m.cfg.Site {
		// Co-located acceptor: the 2b is a local merge, not a datagram.
		m.paxosMerge2b(f, m.cfg.Site, ballot, votes)
		return
	}
	m.send(leader, &wire.Msg{
		Kind: wire.KPaxos2b, TID: tid.Top(f.id), Ballot: ballot, Votes: votes,
	})
}

// paxosMerge2b folds one acceptor's 2b into the leader's tally (f's
// lock held). Empty votes with a higher ballot are a NACK.
func (m *Manager) paxosMerge2b(f *family, from tid.SiteID, ballot uint64, votes []wire.SiteVote) {
	if !f.coord && !f.promoted {
		return
	}
	var want uint64
	if f.promoted {
		if f.paxStage != 2 {
			if ballot > f.paxNack {
				f.paxNack = ballot
			}
			return
		}
		want = f.paxBallot
	}
	if ballot > want {
		// Outbid: a higher-ballot leader is running takeover.
		if ballot > f.paxNack {
			f.paxNack = ballot
		}
		return
	}
	if ballot < want || len(votes) == 0 {
		return
	}
	if !f.promoted && f.ph != phPreparing {
		return
	}
	for _, sv := range votes {
		f.setVote(sv.Site, sv.Vote)
	}
	f.pax2b = unionSites(f.pax2b, from)
	m.paxosCheckDecide(f)
}

// paxosCheckDecide decides once an acceptor quorum has confirmed the
// full vote batch (f's lock held).
func (m *Manager) paxosCheckDecide(f *family) {
	if !(f.promoted && f.paxStage == 2) && !(f.coord && !f.promoted && f.ph == phPreparing) {
		return
	}
	if len(f.pax2b) < m.paxosQuorum(f) {
		return
	}
	commit := true
	for _, s := range f.nbSites {
		if v, _ := f.vote(s); v != wire.VoteYes && v != wire.VoteReadOnly {
			commit = false
			break
		}
	}
	m.paxosDecide(f, commit, 0)
}

// paxosDecide finishes the transaction at the leader. The commit
// point is the acceptor quorum itself — recovery re-derives it from
// the acceptors — so the leader's own commit record is written
// lazily, like a 2PC subordinate's under delayed commit. The outcome
// phase is then the skeleton's (decideCommit, decideAbort), on 2PC's
// message kinds: KCommit/KAbort notifications, delayed subordinate
// commit records, batched acks. Called with f's lock held; exclude (if
// nonzero) already knows the abort outcome.
func (m *Manager) paxosDecide(f *family, commit bool, exclude tid.SiteID) {
	f.paxStage = 0
	if !commit {
		m.decideAbort(f, withoutSites(f.nbSites, m.cfg.Site, exclude), false)
		return
	}
	readOnly := m.tallyVotes(f)
	// Read-only acceptor hosts stayed alive for their acceptor role;
	// tell them the outcome fire-and-forget so they can forget too.
	var roAcceptors []tid.SiteID
	for _, a := range f.paxAcceptors {
		if v, _ := f.vote(a); a != m.cfg.Site && v == wire.VoteReadOnly {
			roAcceptors = append(roAcceptors, a)
		}
	}
	if readOnly {
		m.commitAndForget(f, roAcceptors)
		return
	}
	m.decideCommit(f, f.updateSubs, roAcceptors)
}

// paxosLastVoter reports whether this site's Yes is the last value its
// co-located acceptor is waiting for: it has promised no takeover
// ballot and holds a ballot-0 value for every other instance (f's lock
// held).
func (m *Manager) paxosLastVoter(f *family) bool {
	if !f.paxosIsAcceptor(m.cfg.Site) || f.paxPromised != 0 {
		return false
	}
	for _, s := range f.nbSites {
		if s == m.cfg.Site {
			continue
		}
		if a, ok := lookup(f.paxAcc, s, acceptedSite); !ok || a.Ballot != 0 {
			return false
		}
	}
	return true
}

// onPaxos2a handles a proposer's phase 2a at an acceptor: a ballot-0
// RM vote, or a takeover leader's chosen batch.
func (m *Manager) onPaxos2a(msg *wire.Msg) {
	f := m.lockFamily(msg.TID.Family)
	if f == nil {
		// Already resolved and forgotten: answer from the resolved
		// memory so a lagging leader can finish.
		if m.resolvedOutcome(msg.TID.Family) == wire.OutcomeCommit {
			m.send(msg.From, &wire.Msg{Kind: wire.KCommit, TID: msg.TID})
			return
		}
		// Unknown transaction: the acceptor role must outlive volatile
		// RM state, so create a descriptor for it. Any promise or
		// acceptance it makes is forced and restored after a crash.
		var created bool
		f, created = m.lockOrCreateFamily(msg.TID.Family)
		if created {
			f.paxAcceptorOnly = true
		}
	}
	defer m.unlockFamily(f)
	if f.ph == phCommitted || f.ph == phAborted {
		return
	}
	f.opts.Protocol = wire.Paxos
	if len(f.nbSites) == 0 {
		f.nbSites = msg.Sites
	}
	if len(f.paxAcceptors) == 0 {
		f.paxAcceptors = msg.Acceptors
	}
	if !f.paxosIsAcceptor(m.cfg.Site) {
		return
	}
	if msg.Ballot < f.paxPromised {
		if msg.Ballot > 0 {
			// NACK the outbid takeover leader (ballot-0 RMs retry on
			// their own timer and need no nack).
			m.send(msg.From, &wire.Msg{
				Kind: wire.KPaxos2b, TID: msg.TID, Ballot: f.paxPromised,
			})
		}
		return
	}
	if msg.Ballot > f.paxPromised {
		// Accepting at b implies promising b; recovery restores the
		// promise as the max over promise records and accepted ballots,
		// so no separate promise force is needed here.
		f.paxPromised = msg.Ballot
	}
	m.paxosAccept(f, msg.Ballot, msg.Votes)
}

// onPaxos2b handles an acceptor's batched 2b (or nack) at the leader.
func (m *Manager) onPaxos2b(msg *wire.Msg) {
	f := m.lockFamily(msg.TID.Family)
	if f == nil {
		return
	}
	defer m.unlockFamily(f)
	if f.opts.Protocol != wire.Paxos {
		return
	}
	if _, have := lookup(f.paxAcc, msg.From, acceptedSite); !have && msg.Ballot == 0 && f.paxosIsAcceptor(m.cfg.Site) {
		// A ballot-0 2b is its sender's 2a: only RM s proposes at ballot
		// 0 in instance s, so the value the sender's acceptor reports
		// for the sender's own instance is the sender's vote. A last
		// voter sends the leader nothing else (onPrepare).
		for _, sv := range msg.Votes {
			if sv.Site == msg.From && !m.paxosAccept(f, 0, []wire.SiteVote{sv}) {
				return
			}
		}
	}
	m.paxosMerge2b(f, msg.From, msg.Ballot, msg.Votes)
}

// --- takeover (a prepared participant drives the decision) ---

// paxosPromote starts (or restarts, at a higher ballot) takeover at
// this site (f's lock held; may release it for the promise force).
func (m *Manager) paxosPromote(f *family) {
	if !f.promoted {
		f.promoted = true
		m.tr.Count(m.cfg.Site, trace.Promotions, 1)
	}
	round := f.paxRound + 1
	if r := paxosBallotRound(f.paxNack) + 1; r > round {
		round = r
	}
	if r := paxosBallotRound(f.paxPromised) + 1; r > round {
		round = r
	}
	f.paxRound = round
	f.paxBallot = paxosBallot(round, m.cfg.Site)
	f.paxStage = 1
	f.pax1b, f.pax2b = f.pax1b[:0], f.pax2b[:0]
	f.attempts, f.backoffN = 0, 0
	if f.paxosIsAcceptor(m.cfg.Site) {
		if !m.paxosPromiseLocal(f) {
			return
		}
	}
	m.fanout(withoutSites(f.paxAcceptors, m.cfg.Site), &wire.Msg{
		Kind: wire.KPaxos1a, TID: tid.Top(f.id), Ballot: f.paxBallot,
		Sites: f.nbSites, Acceptors: f.paxAcceptors,
	}, f.opts.Multicast)
	m.schedule(f, m.cfg.RetryInterval)
	m.paxosCheck1bQuorum(f)
}

// paxosPromiseLocal records the co-located acceptor's promise for our
// own takeover ballot and files its 1b (f's lock held; released
// around the force). Returns false if the family died meanwhile.
func (m *Manager) paxosPromiseLocal(f *family) bool {
	b := f.paxBallot
	if b <= f.paxPromised {
		return true
	}
	f.paxPromised = b
	if !m.paxosForcePromise(f, b) {
		return false
	}
	if f.paxStage == 1 && f.paxBallot == b {
		f.pax1b = putSite(f.pax1b, promise{m.cfg.Site, slices.Clone(f.paxAcc)}, promiseSite)
	}
	return true
}

// paxosForcePromise durably records a ballot promise (f's lock held;
// released around the force). Returns false if the family died or the
// log failed — in either case the caller must not act on the promise.
func (m *Manager) paxosForcePromise(f *family, b uint64) bool {
	rec := &wal.Record{
		Type: wal.RecPaxosPromise, TID: tid.Top(f.id), Ballot: b,
		Sites: f.nbSites, Acceptors: f.paxAcceptors,
	}
	live, err := m.forceRecord(f, rec)
	return live && err == nil
}

// onPaxos1a handles a takeover leader's phase 1a at an acceptor.
func (m *Manager) onPaxos1a(msg *wire.Msg) {
	f := m.lockFamily(msg.TID.Family)
	if f == nil {
		if m.resolvedOutcome(msg.TID.Family) == wire.OutcomeCommit {
			m.send(msg.From, &wire.Msg{Kind: wire.KCommit, TID: msg.TID})
		} else {
			m.send(msg.From, &wire.Msg{Kind: wire.KAbort, TID: msg.TID})
		}
		return
	}
	defer m.unlockFamily(f)
	if f.ph == phCommitted || f.ph == phAborted {
		return
	}
	f.opts.Protocol = wire.Paxos
	if len(f.nbSites) == 0 {
		f.nbSites = msg.Sites
	}
	if len(f.paxAcceptors) == 0 {
		f.paxAcceptors = msg.Acceptors
	}
	if !f.paxosIsAcceptor(m.cfg.Site) {
		return
	}
	if msg.Ballot < f.paxPromised {
		m.send(msg.From, &wire.Msg{Kind: wire.KPaxos1b, TID: msg.TID, Ballot: f.paxPromised})
		return
	}
	if msg.Ballot > f.paxPromised {
		// The promise must be durable before the 1b leaves: an empty 1b
		// commits this acceptor to never accepting a lower ballot, and
		// the leader may decide Aborted on the strength of it. Losing
		// the promise in a crash could let a late ballot-0 Yes slip in
		// afterwards, contradicting that decision.
		f.paxPromised = msg.Ballot
		if !m.paxosForcePromise(f, msg.Ballot) {
			return
		}
		if f.ph == phCommitted || f.ph == phAborted {
			return
		}
	}
	m.send(msg.From, &wire.Msg{
		Kind: wire.KPaxos1b, TID: msg.TID, Ballot: msg.Ballot, Accepted: slices.Clone(f.paxAcc),
	})
}

// onPaxos1b handles an acceptor's promise (or nack) at a takeover
// leader.
func (m *Manager) onPaxos1b(msg *wire.Msg) {
	f := m.lockFamily(msg.TID.Family)
	if f == nil {
		return
	}
	defer m.unlockFamily(f)
	if !f.promoted || f.paxStage != 1 {
		return
	}
	if msg.Ballot != f.paxBallot {
		if msg.Ballot > f.paxNack {
			f.paxNack = msg.Ballot
		}
		return
	}
	f.pax1b = putSite(f.pax1b, promise{msg.From, msg.Accepted}, promiseSite)
	m.paxosCheck1bQuorum(f)
}

// paxosCheck1bQuorum moves takeover to phase 2 once a promise quorum
// is in: for each instance choose the highest-ballot accepted value,
// or Aborted where the quorum saw none — the free choice Paxos
// grants, and the safe one for an RM that may never have voted (f's
// lock held; may release it for the local accept force).
func (m *Manager) paxosCheck1bQuorum(f *family) {
	if f.paxStage != 1 || len(f.pax1b) < m.paxosQuorum(f) {
		return
	}
	chosen := make([]wire.SiteVote, 0, len(f.nbSites))
	for _, s := range f.nbSites {
		v := wire.VoteNo
		var best uint64
		for _, p := range f.pax1b {
			for _, a := range p.accepted {
				if a.Site == s && (a.Ballot > best || (a.Ballot == best && v == wire.VoteNo)) {
					// Equal-ballot entries carry identical values — one
					// proposer per ballot — so any of them will do.
					best = a.Ballot
					v = a.Vote
				}
			}
		}
		chosen = append(chosen, wire.SiteVote{Site: s, Vote: v})
		f.setVote(s, v)
	}
	f.paxStage = 2
	f.pax2b = f.pax2b[:0]
	f.attempts, f.backoffN = 0, 0
	if f.paxosIsAcceptor(m.cfg.Site) {
		if !m.paxosAccept(f, f.paxBallot, chosen) {
			return
		}
		if f.paxStage != 2 {
			// The local accept completed the quorum and decided.
			return
		}
	}
	m.fanout(withoutSites(f.paxAcceptors, m.cfg.Site), &wire.Msg{
		Kind: wire.KPaxos2a, TID: tid.Top(f.id), Ballot: f.paxBallot,
		Votes: chosen, Sites: f.nbSites, Acceptors: f.paxAcceptors,
	}, f.opts.Multicast)
	m.schedule(f, m.cfg.RetryInterval)
	m.paxosCheckDecide(f)
}

// paxosRetryTakeover is an undecided takeover leader's timer step
// (f's lock held): outbid, start over at a round above the rival's;
// otherwise re-send the current stage's message to the acceptors that
// have not answered it.
func (m *Manager) paxosRetryTakeover(f *family) {
	if f.paxNack > f.paxBallot {
		m.paxosPromote(f)
		return
	}
	switch f.paxStage {
	case 1:
		var missing []tid.SiteID
		for _, a := range f.paxAcceptors {
			if _, ok := lookup(f.pax1b, a, promiseSite); a != m.cfg.Site && !ok {
				missing = append(missing, a)
			}
		}
		m.retryFanout(f, missing, &wire.Msg{
			Kind: wire.KPaxos1a, TID: tid.Top(f.id), Ballot: f.paxBallot,
			Sites: f.nbSites, Acceptors: f.paxAcceptors,
		}, "paxos1a")
		m.reschedule(f, m.cfg.RetryInterval)
	case 2:
		chosen := make([]wire.SiteVote, 0, len(f.nbSites))
		for _, s := range f.nbSites {
			v, _ := f.vote(s)
			chosen = append(chosen, wire.SiteVote{Site: s, Vote: v})
		}
		var missing []tid.SiteID
		for _, a := range f.paxAcceptors {
			if a != m.cfg.Site && !slices.Contains(f.pax2b, a) {
				missing = append(missing, a)
			}
		}
		m.retryFanout(f, missing, &wire.Msg{
			Kind: wire.KPaxos2a, TID: tid.Top(f.id), Ballot: f.paxBallot,
			Votes: chosen, Sites: f.nbSites, Acceptors: f.paxAcceptors,
		}, "paxos2a")
		m.reschedule(f, m.cfg.RetryInterval)
	}
}
