package core

import (
	"cmp"
	"slices"

	"camelot/internal/tid"
	"camelot/internal/wire"
)

// A family keeps each set of sites as a sorted []tid.SiteID, and each
// per-site value as a slice of elements that carry their site, in site
// order; nil is empty. Walking one visits the sites in the order every
// fan-out, record and timeline uses. A slice that leaves the family, in
// a wal.Record or a wire.Msg, is one the family never inserts into
// again, or a clone; the transport keeps no fan-out list past the call.

// unionSites adds sites to the site set ss.
func unionSites(ss []tid.SiteID, sites ...tid.SiteID) []tid.SiteID {
	for _, s := range sites {
		if i, found := slices.BinarySearch(ss, s); !found {
			ss = slices.Insert(ss, i, s)
		}
	}
	return ss
}

// withoutSites is a new site set: ss less the sites in drop.
func withoutSites(ss []tid.SiteID, drop ...tid.SiteID) []tid.SiteID {
	var out []tid.SiteID
	for _, s := range ss {
		if !slices.Contains(drop, s) {
			out = append(out, s)
		}
	}
	return out
}

// siteStatus is a site's answer to a promoted coordinator's status
// inquiry; NBUnknown is an answer too.
type siteStatus struct {
	site  tid.SiteID
	state wire.NBState
}

// promise is an acceptor's phase-1b reply to a takeover leader.
type promise struct {
	site     tid.SiteID
	accepted []wire.PaxosAccepted
}

func voteSite(v wire.SiteVote) tid.SiteID          { return v.Site }
func acceptedSite(a wire.PaxosAccepted) tid.SiteID { return a.Site }
func statusSite(s siteStatus) tid.SiteID           { return s.site }
func promiseSite(p promise) tid.SiteID             { return p.site }

// findSite locates site s in xs, which key keeps in site order.
func findSite[T any](xs []T, s tid.SiteID, key func(T) tid.SiteID) (int, bool) {
	return slices.BinarySearchFunc(xs, s, func(x T, s tid.SiteID) int { return cmp.Compare(key(x), s) })
}

// putSite stores x at its site's place in xs, replacing any entry the
// site had.
func putSite[T any](xs []T, x T, key func(T) tid.SiteID) []T {
	i, found := findSite(xs, key(x), key)
	if found {
		xs[i] = x
		return xs
	}
	return slices.Insert(xs, i, x)
}

// lookup is site s's entry in xs, which key keeps in site order, and
// whether it has one.
func lookup[T any](xs []T, s tid.SiteID, key func(T) tid.SiteID) (T, bool) {
	i, found := findSite(xs, s, key)
	if !found {
		var zero T
		return zero, false
	}
	return xs[i], true
}

// vote is site s's phase-one answer and whether it has answered: a
// VoteInvalid answer is still one.
func (f *family) vote(s tid.SiteID) (wire.Vote, bool) {
	sv, ok := lookup(f.votes, s, voteSite)
	return sv.Vote, ok
}

func (f *family) setVote(s tid.SiteID, v wire.Vote) {
	f.votes = putSite(f.votes, wire.SiteVote{Site: s, Vote: v}, voteSite)
}
