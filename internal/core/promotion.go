package core

import (
	"slices"

	"camelot/internal/tid"
	"camelot/internal/trace"
	"camelot/internal/wal"
	"camelot/internal/wire"
)

// This file implements change 2 of §3.3: a non-blocking subordinate
// that times out waiting for the commit/abort notice becomes a
// coordinator. It gathers every site's protocol state; any site
// already committed or aborted settles the outcome; a commit quorum
// of replicated intent records settles commit; otherwise it solicits
// abort-intent records until an abort quorum forms. A site that has
// written a replicated commit intent never joins the abort quorum
// (change 4), so the intersecting quorums exclude split decisions
// even with several simultaneous coordinators.

// promote turns this stalled subordinate into a coordinator. Called
// with f's lock held.
func (m *Manager) promote(f *family) {
	if !f.promoted {
		f.promoted = true
		m.tr.Count(m.cfg.Site, trace.Promotions, 1)
		f.statusResp = []siteStatus{{m.cfg.Site, f.nbState}}
		if f.nbState == wire.NBAbortIntent {
			f.abortIntents = []tid.SiteID{m.cfg.Site}
		}
	}
	m.promotionSweep(f)
}

// promotionSweep (re)broadcasts the status inquiry of an undecided
// promoted coordinator and re-arms the retry timer (f's lock held).
func (m *Manager) promotionSweep(f *family) {
	m.retryFanout(f, withoutSites(f.nbSites, m.cfg.Site), &wire.Msg{Kind: wire.KNBStatusReq, TID: tid.Top(f.id)}, "status")
	m.reschedule(f, m.cfg.RetryInterval)
}

// onNBStatusReq reports this site's position in the protocol to a
// promoted coordinator. Any site may be asked, including the
// original coordinator.
func (m *Manager) onNBStatusReq(msg *wire.Msg) {
	resp := &wire.Msg{Kind: wire.KNBStatusResp, TID: msg.TID}
	f := m.lockFamily(msg.TID.Family)
	if f == nil {
		// Forgotten families still have a remembered outcome; only a
		// transaction this site truly never resolved is UNKNOWN.
		switch m.resolvedOutcome(msg.TID.Family) {
		case wire.OutcomeCommit:
			resp.State = wire.NBCommitted
		case wire.OutcomeAbort:
			resp.State = wire.NBAborted
		default:
			resp.State = wire.NBUnknown
		}
		m.send(msg.From, resp)
		return
	}
	defer m.unlockFamily(f)
	switch f.ph {
	case phCommitted:
		resp.State = wire.NBCommitted
	case phAborted:
		resp.State = wire.NBAborted
	default:
		resp.State = f.nbState
		if resp.State == wire.NBUnknown && f.prepared {
			resp.State = wire.NBPrepared
		}
	}
	resp.Votes = f.nbVotes
	resp.Sites = f.nbSites
	m.send(msg.From, resp)
}

// onNBStatusResp collects states at a promoted coordinator and
// re-evaluates the decision rules.
func (m *Manager) onNBStatusResp(msg *wire.Msg) {
	f := m.lockFamily(msg.TID.Family)
	if f == nil {
		return
	}
	defer m.unlockFamily(f)
	if !f.promoted || f.ph == phCommitted || f.ph == phAborted {
		return
	}
	f.statusResp = putSite(f.statusResp, siteStatus{msg.From, msg.State}, statusSite)
	if len(f.nbVotes) == 0 && len(msg.Votes) > 0 {
		f.nbVotes = msg.Votes
	}
	if len(f.nbSites) == 0 && len(msg.Sites) > 0 {
		f.nbSites = msg.Sites
	}
	if msg.State == wire.NBAbortIntent {
		f.abortIntents = unionSites(f.abortIntents, msg.From)
	}
	m.evaluatePromotion(f)
}

// evaluatePromotion applies the quorum-consensus decision rules (f's
// lock held).
func (m *Manager) evaluatePromotion(f *family) {
	replicated, anyCommitted, anyAborted := 0, false, false
	for _, st := range f.statusResp {
		switch st.state {
		case wire.NBCommitted:
			anyCommitted = true
		case wire.NBAborted:
			anyAborted = true
		case wire.NBReplicated:
			replicated++
		case wire.NBPrepared, wire.NBAbortIntent:
			// A merely-prepared site adds no quorum weight, and abort
			// intents were already tallied into f.abortIntents when the
			// status response arrived.
		}
	}
	switch {
	case anyCommitted:
		m.driveOutcome(f, wire.OutcomeCommit)
	case anyAborted:
		m.driveOutcome(f, wire.OutcomeAbort)
	case replicated >= f.commitQuorum:
		// The commit intent is replicated widely enough to exclude
		// abort: the decision is commit.
		m.driveOutcome(f, wire.OutcomeCommit)
	case len(f.abortIntents) >= f.abortQuorum:
		m.driveOutcome(f, wire.OutcomeAbort)
	default:
		m.solicitAbortIntents(f)
	}
}

// solicitAbortIntents tries to assemble an abort quorum from sites
// that have not written a commit intent. With two or more failures no
// quorum may form and every surviving site stays blocked — "it is
// impossible to do better." Called and returns with f's lock held
// (the lock is released around the local force).
func (m *Manager) solicitAbortIntents(f *family) {
	// Write our own abort-intent record first (once).
	if f.nbState == wire.NBPrepared && !slices.Contains(f.abortIntents, m.cfg.Site) {
		live, err := m.forceRecord(f, &wal.Record{Type: wal.RecNBAbortIntent, TID: tid.Top(f.id), Sites: f.nbSites})
		if !live {
			return
		}
		if err == nil {
			f.nbState = wire.NBAbortIntent
			f.abortIntents = unionSites(f.abortIntents, m.cfg.Site)
			f.statusResp = putSite(f.statusResp, siteStatus{m.cfg.Site, wire.NBAbortIntent}, statusSite)
		}
		if len(f.abortIntents) >= f.abortQuorum {
			m.driveOutcome(f, wire.OutcomeAbort)
			return
		}
	}
	var targets []tid.SiteID
	for _, s := range f.nbSites {
		if s == m.cfg.Site || slices.Contains(f.abortIntents, s) {
			continue
		}
		st, _ := lookup(f.statusResp, s, statusSite)
		switch st.state {
		case wire.NBReplicated, wire.NBCommitted, wire.NBAborted:
			// May not or need not join the abort quorum.
		case wire.NBPrepared, wire.NBAbortIntent:
			// A prepared site can still pledge abort; a site whose
			// intent we hold was skipped above, so an NBAbortIntent
			// status here just means the pledge round is re-asked.
			targets = append(targets, s)
		default:
			// No status response from the site yet (NBUnknown).
			targets = append(targets, s)
		}
	}
	m.fanout(targets, &wire.Msg{Kind: wire.KNBAbortIntent, TID: tid.Top(f.id)}, f.opts.Multicast)
}

// onNBAbortIntent asks this site to pledge abort. Refused if we hold
// a replicated commit intent (change 4).
func (m *Manager) onNBAbortIntent(msg *wire.Msg) {
	f := m.lockFamily(msg.TID.Family)
	if f == nil {
		// A forgotten-but-resolved transaction must answer from its
		// remembered outcome: a committed site may never pledge abort
		// (change 4), and an aborted one can just re-acknowledge.
		switch m.resolvedOutcome(msg.TID.Family) {
		case wire.OutcomeCommit:
			m.send(msg.From, &wire.Msg{Kind: wire.KNBStatusResp, TID: msg.TID,
				State: wire.NBCommitted})
			return
		case wire.OutcomeAbort:
			m.send(msg.From, &wire.Msg{Kind: wire.KNBAbortIntentAck, TID: msg.TID})
			return
		}
		// Truly unknown: we hold no commit intent, so pledging abort
		// is safe (and consistent with presumed abort).
		var created bool
		f, created = m.lockOrCreateFamily(msg.TID.Family)
		if created {
			f.opts.Protocol = wire.NonBlocking
		}
	}
	defer m.unlockFamily(f)
	switch {
	case f.ph == phAborted || f.nbState == wire.NBAbortIntent:
		m.send(msg.From, &wire.Msg{Kind: wire.KNBAbortIntentAck, TID: msg.TID})
		return
	case f.nbState == wire.NBReplicated || f.ph == phCommitted || f.ph == phReplicated:
		// Already in (or past) the commit quorum: refuse by reporting
		// state instead of acknowledging.
		m.send(msg.From, &wire.Msg{Kind: wire.KNBStatusResp, TID: msg.TID,
			State: wire.NBReplicated, Votes: f.nbVotes, Sites: f.nbSites})
		return
	}
	rec := &wal.Record{Type: wal.RecNBAbortIntent, TID: msg.TID, Sites: f.nbSites}
	if live, err := m.forceRecord(f, rec); !live || err != nil {
		return
	}
	f.nbState = wire.NBAbortIntent
	m.send(msg.From, &wire.Msg{Kind: wire.KNBAbortIntentAck, TID: msg.TID})
}

// onNBAbortIntentAck counts pledges at the soliciting coordinator.
func (m *Manager) onNBAbortIntentAck(msg *wire.Msg) {
	f := m.lockFamily(msg.TID.Family)
	if f == nil {
		return
	}
	defer m.unlockFamily(f)
	if !f.promoted || f.ph == phCommitted || f.ph == phAborted {
		return
	}
	f.abortIntents = unionSites(f.abortIntents, msg.From)
	f.statusResp = putSite(f.statusResp, siteStatus{msg.From, wire.NBAbortIntent}, statusSite)
	if len(f.abortIntents) >= f.abortQuorum {
		m.driveOutcome(f, wire.OutcomeAbort)
	}
}

// driveOutcome finishes the transaction as (possibly one of several)
// coordinator: the skeleton's decision and notify phase, with every
// other site owed the outcome (f's lock held).
func (m *Manager) driveOutcome(f *family, outcome wire.Outcome) {
	others := withoutSites(f.nbSites, m.cfg.Site)
	if outcome == wire.OutcomeCommit {
		m.decideCommit(f, others, nil)
	} else {
		m.decideAbort(f, others, true)
	}
}
