// Package recman implements the recovery process: after a failure it
// "reads the log and instructs servers how to undo or redo updates of
// interrupted transactions" (paper §2), and it rebuilds the
// transaction-manager state needed to finish in-doubt commitments —
// presumed-abort inquiry for two-phase commit, quorum resolution for
// the non-blocking protocol, acceptor takeover for Paxos Commit. The
// transaction manager takes the analysis whole (core.Manager.Restore).
//
// Recovery is a single analysis pass over the durable log in LSN
// order, on top of the disk manager's checkpoint image:
//
//   - updates of committed families (excluding aborted nested
//     subtrees) are redone onto the image, which becomes the servers'
//     recovered state;
//   - updates of aborted or never-resolved families are discarded —
//     presumed abort means no record implies abort;
//   - prepared or intent-replicated transactions without an outcome —
//     and, under Paxos Commit, families with durable acceptor state —
//     are in doubt: their updates are re-applied under re-acquired
//     locks and handed to the transaction manager for resolution;
//   - a coordinator's COMMIT record without a matching END means
//     subordinates may still be waiting: the outcome must be
//     re-driven until every ack arrives.
package recman

import (
	"cmp"
	"slices"

	"camelot/internal/tid"
	"camelot/internal/wal"
	"camelot/internal/wire"
)

// InDoubt describes a prepared-but-unresolved transaction found in
// the log.
type InDoubt struct {
	TID          tid.TID
	Coordinator  tid.SiteID
	Protocol     wire.Protocol // whose records these are; recovery resumes under it
	Sites        []tid.SiteID
	CommitQuorum int
	AbortQuorum  int
	Replicated   bool // an NB commit-intent record was forced here
	AbortIntent  bool // an NB abort-intent record was forced here
	Votes        []wire.SiteVote
	// Paxos Commit state. Prepared reports a durable PAXOS-PREPARE
	// (the site's own Yes vote); a site with only acceptor records —
	// a read-only participant hosting an acceptor, or a pure
	// acceptor-role descriptor — is still in doubt, but recovery must
	// not claim a vote it never forced.
	Prepared  bool
	Acceptors []tid.SiteID
	Promised  uint64 // max over promise records and accepted-record ballots
	Accepted  []wire.PaxosAccepted
	AccForced bool // a PAXOS-ACCEPT record is durable here
	// Updates are the in-doubt writes per server, to re-apply under
	// re-acquired locks.
	Updates map[string][]*wal.Record
}

// CoordResume describes a coordinator decision that may not have
// reached every subordinate.
type CoordResume struct {
	TID        tid.TID
	UpdateSubs []tid.SiteID
	// Protocol is the notify path to resume: NonBlocking when a
	// replication record precedes the COMMIT, else TwoPhase — which
	// includes Paxos, whose coordinator COMMIT record is 2PC-shaped.
	Protocol wire.Protocol
}

// Analysis is the result of scanning one site's log.
type Analysis struct {
	// Data is the recovered committed state, per server per key: the
	// image Analyze was given with the log's committed updates redone
	// onto it.
	Data map[string]map[string][]byte
	// InDoubt lists transactions this site must resolve via protocol.
	InDoubt []InDoubt
	// Resume lists coordinator decisions to re-drive.
	Resume []CoordResume
	// Outcomes are the top-level outcomes the log records, by family.
	// A nested abort dooms only its subtree and is not among them.
	Outcomes OutcomeTable
	// MaxLocalFamily is the highest family counter this site ever
	// allocated, as witnessed by the log. The restarted transaction
	// manager must begin new families above it: reusing a family
	// identifier would let a new transaction's ABORT record
	// retroactively doom a previous incarnation's committed updates.
	MaxLocalFamily uint32
}

// Analyze scans records (in LSN order, as wal.Log.Records returns
// them) for the given site, redoing committed updates onto image — the
// checkpoint image the records continue, per server per key. Analyze
// takes ownership of image and returns it as Data; nil means an empty
// image.
func Analyze(site tid.SiteID, image map[string]map[string][]byte, records []*wal.Record) *Analysis {
	if image == nil {
		image = make(map[string]map[string][]byte)
	}
	a := &Analysis{Data: image}

	var updates []*wal.Record
	parentOf := make(map[tid.TID]tid.TID)
	aborted := make(map[tid.TID]bool) // top-level and nested
	prepared := make(map[tid.TID]*wal.Record)
	replicated := make(map[tid.TID]*wal.Record)
	abortIntent := make(map[tid.TID]bool)
	commitSites := make(map[tid.TID][]tid.SiteID)
	commitProtocol := make(map[tid.TID]wire.Protocol)
	ended := make(map[tid.TID]bool)
	paxPrepared := make(map[tid.TID]*wal.Record)
	paxAccepted := make(map[tid.TID]*wal.Record)
	paxPromise := make(map[tid.TID]*wal.Record)

	for _, r := range records {
		if r.TID.Family.Origin() == site && r.TID.Family.Counter() > a.MaxLocalFamily {
			a.MaxLocalFamily = r.TID.Family.Counter()
		}
		switch r.Type {
		case wal.RecUpdate:
			updates = append(updates, r)
			if !r.Parent.IsZero() {
				parentOf[r.TID] = r.Parent
			}
		case wal.RecPrepare:
			prepared[r.TID.TopLevel()] = r
		case wal.RecNBReplicate:
			replicated[r.TID.TopLevel()] = r
		case wal.RecNBAbortIntent:
			abortIntent[r.TID.TopLevel()] = true
		case wal.RecPaxosPrepare:
			paxPrepared[r.TID.TopLevel()] = r
		case wal.RecPaxosAccept:
			// Keep the freshest accepted state: highest ballot, later
			// LSN on ties (a re-forced batch supersedes its predecessor).
			top := r.TID.TopLevel()
			if cur := paxAccepted[top]; cur == nil || r.Ballot >= cur.Ballot {
				paxAccepted[top] = r
			}
		case wal.RecPaxosPromise:
			top := r.TID.TopLevel()
			if cur := paxPromise[top]; cur == nil || r.Ballot > cur.Ballot {
				paxPromise[top] = r
			}
		case wal.RecCommit:
			top := r.TID.TopLevel()
			a.Outcomes.Set(top.Family, wire.OutcomeCommit)
			commitSites[top] = r.Sites
			if _, wasNB := replicated[top]; wasNB {
				commitProtocol[top] = wire.NonBlocking
			}
		case wal.RecAbort:
			// A nested abort dooms that subtree only.
			aborted[r.TID] = true
			if r.TID.IsTop() {
				a.Outcomes.Set(r.TID.Family, wire.OutcomeAbort)
			}
		case wal.RecEnd:
			ended[r.TID.TopLevel()] = true
		}
	}

	// Classify in-doubt transactions: prepared or intent-replicated,
	// no outcome. Everything else without a commit record is aborted
	// by presumption.
	indoubtSet := make(map[tid.TID]*InDoubt)
	consider := func(top tid.TID, rec *wal.Record, repl bool) {
		if a.Outcomes.Get(top.Family) != wire.OutcomeUnknown {
			return
		}
		d := indoubtSet[top]
		if d == nil {
			d = &InDoubt{TID: top, Updates: make(map[string][]*wal.Record)}
			indoubtSet[top] = d
		}
		d.Coordinator = rec.Coordinator
		if len(rec.Sites) > 0 {
			d.Sites = rec.Sites
			d.Protocol = wire.NonBlocking
			d.CommitQuorum = int(rec.CommitQuorum)
			d.AbortQuorum = int(rec.AbortQuorum)
		}
		if repl {
			d.Replicated = true
			d.Votes = rec.Votes
		}
		d.AbortIntent = d.AbortIntent || abortIntent[top]
	}
	for top, rec := range prepared {
		consider(top, rec, false)
	}
	for top, rec := range replicated {
		consider(top, rec, true)
	}
	// Paxos records route through their own classifier, after
	// consider: its len(Sites)>0 ⇒ NonBlocking heuristic never sees
	// them, and Paxos wins for a family both classifiers touched.
	considerPaxos := func(top tid.TID, rec *wal.Record, preparedHere bool) {
		if a.Outcomes.Get(top.Family) != wire.OutcomeUnknown {
			return
		}
		d := indoubtSet[top]
		if d == nil {
			d = &InDoubt{TID: top, Updates: make(map[string][]*wal.Record)}
			indoubtSet[top] = d
		}
		d.Protocol = wire.Paxos
		if rec.Coordinator != 0 {
			d.Coordinator = rec.Coordinator
		}
		if len(rec.Sites) > 0 {
			d.Sites = rec.Sites
		}
		if len(rec.Acceptors) > 0 {
			d.Acceptors = rec.Acceptors
		}
		if preparedHere {
			d.Prepared = true
		}
		if p := paxPromise[top]; p != nil && p.Ballot > d.Promised {
			d.Promised = p.Ballot
		}
	}
	for top, rec := range paxPrepared {
		considerPaxos(top, rec, true)
	}
	// A promise with neither prepare nor accept still binds: the
	// restarted acceptor must keep refusing lower ballots, or a late
	// ballot-0 vote could contradict an abort decided on the strength
	// of this site's empty phase-1b answer.
	for top, rec := range paxPromise {
		considerPaxos(top, rec, false)
	}
	for top, rec := range paxAccepted {
		considerPaxos(top, rec, false)
		if d := indoubtSet[top]; d != nil {
			// The batch is only forced complete, and a higher-ballot 2a
			// always rewrites every instance, so one record's votes all
			// share its ballot.
			for _, v := range rec.Votes {
				d.Accepted = append(d.Accepted, wire.PaxosAccepted{
					Site: v.Site, Ballot: rec.Ballot, Vote: v.Vote,
				})
			}
			d.AccForced = true
			// Accepting at b implies promising b.
			if rec.Ballot > d.Promised {
				d.Promised = rec.Ballot
			}
		}
	}

	// Redo pass: apply winners onto the image in LSN order; collect
	// in-doubt updates.
	for _, u := range updates {
		top := u.TID.TopLevel()
		if doomedByAncestry(u.TID, parentOf, aborted) {
			continue
		}
		if a.Outcomes.Get(top.Family) == wire.OutcomeCommit {
			m := a.Data[u.Server]
			if m == nil {
				m = make(map[string][]byte)
				a.Data[u.Server] = m
			}
			if u.New == nil {
				delete(m, u.Key)
			} else {
				m[u.Key] = u.New
			}
			continue
		}
		if d := indoubtSet[top]; d != nil {
			d.Updates[u.Server] = append(d.Updates[u.Server], u)
		}
		// Otherwise: loser by presumed abort; discard.
	}

	for _, d := range indoubtSet {
		a.InDoubt = append(a.InDoubt, *d)
	}

	// Coordinator decisions to re-drive: our own committed families
	// whose END never made it to the log, in family order.
	a.Outcomes.Range(func(f tid.FamilyID, o wire.Outcome) {
		top := tid.Top(f)
		if o != wire.OutcomeCommit || f.Origin() != site || ended[top] {
			return
		}
		subs := commitSites[top]
		if len(subs) == 0 {
			return // local-only: nothing to notify
		}
		a.Resume = append(a.Resume, CoordResume{
			TID:        top,
			UpdateSubs: subs,
			Protocol:   commitProtocol[top],
		})
	})
	// The in-doubt list was filled in map order; the transaction
	// manager resumes families in list order, which a replay must
	// repeat.
	slices.SortFunc(a.InDoubt, func(x, y InDoubt) int { return cmp.Compare(x.TID.Family, y.TID.Family) })
	return a
}

// doomedByAncestry reports whether t or any ancestor was aborted.
func doomedByAncestry(t tid.TID, parentOf map[tid.TID]tid.TID, aborted map[tid.TID]bool) bool {
	for {
		if aborted[t] {
			return true
		}
		p, ok := parentOf[t]
		if !ok {
			return false
		}
		t = p
	}
}
