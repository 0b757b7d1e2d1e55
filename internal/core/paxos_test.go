package core_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"camelot/internal/core"
	"camelot/internal/tid"
	"camelot/internal/transport"
	"camelot/internal/wal"
	"camelot/internal/wire"
)

// Hazard tests for Paxos Commit's co-location folds (DESIGN.md §10):
// each drives one site's handlers at the moment the fold makes
// delicate, which the budget tables and the chaos sweeps only reach by
// luck.

var paxosF1 = core.Options{Protocol: wire.Paxos, PaxosF: 1}

// combinedBlock is the label of the device write a last voter's fold
// produces: its prepared and accepted records in one block.
const combinedBlock = "PAXOS-PREPARE+PAXOS-ACCEPT"

// hookStore calls during from inside the first device write whose
// block label ends with suffix — that is, while the force that asked
// for the write is still in flight — and, if fail is set, refuses that
// write.
type hookStore struct {
	wal.Store
	suffix string
	during func()
	fail   bool
	fired  bool
}

func (s *hookStore) Append(block []byte) error {
	if !s.fired && strings.HasSuffix(wal.BlockType(block), s.suffix) {
		s.fired = true
		if s.during != nil {
			s.during()
		}
		if s.fail {
			return errors.New("injected device failure")
		}
	}
	return s.Store.Append(block)
}

// paxosPair builds sites 1 and 2, with hook interposed on site 2's
// log, and records every datagram site 1 receives.
func paxosPair(t *testing.T, hook *hookStore) (h *harness, atLeader *[]*wire.Msg) {
	t.Helper()
	h = newHarness(t, 1)
	h.wrapStore = func(s wal.Store) wal.Store {
		hook.Store = s
		return hook
	}
	h.addSite(2)
	var got []*wire.Msg
	leader := h.sites[1].m
	h.net.Register(1, func(d transport.Datagram) {
		if msg, ok := d.Payload.(*wire.Msg); ok {
			got = append(got, msg)
			leader.Deliver(msg)
		}
	})
	return h, &got
}

func kindsFrom(msgs []*wire.Msg, from tid.SiteID) []wire.Kind {
	var out []wire.Kind
	for _, m := range msgs {
		if m.From == from {
			out = append(out, m.Kind)
		}
	}
	return out
}

func countKind(kinds []wire.Kind, k wire.Kind) int {
	n := 0
	for _, x := range kinds {
		if x == k {
			n++
		}
	}
	return n
}

// A duplicate vote request that arrives while the last voter's
// combined force is in flight must not run the vote round again, must
// not write a second pair of records, and must not cast a vote that is
// not durable yet: the leader hears exactly one 2b, after the force.
func TestPaxosDuplicatePrepareDuringCombinedForce(t *testing.T) {
	hook := &hookStore{suffix: combinedBlock}
	h, atLeader := paxosPair(t, hook)
	var txn tid.TID
	sentDuringForce := -1
	hook.during = func() {
		before := h.sent()
		h.sites[2].m.Deliver(&wire.Msg{
			Kind: wire.KPaxosPrepare, TID: txn, From: 1, To: 2,
			Sites: []tid.SiteID{1, 2}, Acceptors: []tid.SiteID{1, 2},
			Votes: []wire.SiteVote{{Site: 1, Vote: wire.VoteYes}},
		})
		h.k.Sleep(5 * time.Millisecond) // the duplicate is handled; the force is still out
		sentDuringForce = h.sent() - before
	}
	h.run(t, func() {
		txn = h.beginDistributed(t, 2)
		if out, err := h.sites[1].m.Commit(txn, paxosF1); err != nil || out != wire.OutcomeCommit {
			t.Fatalf("Commit = %v, %v", out, err)
		}
		h.k.Sleep(100 * time.Millisecond)
		if !hook.fired {
			t.Fatal("site 2 never wrote a combined prepared+accepted block: the fold did not run")
		}
		if sentDuringForce != 0 {
			t.Errorf("%d datagrams left while the combined force was in flight", sentDuringForce)
		}
		if h.sites[2].part.asked != 1 {
			t.Errorf("vote round ran %d times, want 1", h.sites[2].part.asked)
		}
		if n := countRecords(t, h.sites[2].log, wal.RecPaxosPrepare); n != 1 {
			t.Errorf("prepared records = %d, want 1", n)
		}
		if n := countRecords(t, h.sites[2].log, wal.RecPaxosAccept); n != 1 {
			t.Errorf("accepted records = %d, want 1", n)
		}
		kinds := kindsFrom(*atLeader, 2)
		if countKind(kinds, wire.KPaxos2b) != 1 || countKind(kinds, wire.KPaxos2a) != 0 {
			t.Errorf("leader heard %v from the last voter, want one 2b and no 2a", kinds)
		}
		if h.sites[2].part.commits != 1 {
			t.Errorf("subordinate commits = %d, want 1", h.sites[2].part.commits)
		}
	})
}

// A failed combined force answers No and aborts locally, exactly as a
// failed prepared-record force does.
func TestPaxosFailedCombinedForceVotesNo(t *testing.T) {
	hook := &hookStore{suffix: combinedBlock, fail: true}
	h, atLeader := paxosPair(t, hook)
	h.run(t, func() {
		txn := h.beginDistributed(t, 2)
		if _, err := h.sites[1].m.Commit(txn, paxosF1); !errors.Is(err, core.ErrAborted) {
			t.Fatalf("Commit = %v, want ErrAborted", err)
		}
		h.k.Sleep(100 * time.Millisecond)
		kinds := kindsFrom(*atLeader, 2)
		if countKind(kinds, wire.KPaxosVote) != 1 || countKind(kinds, wire.KPaxos2b) != 0 {
			t.Errorf("leader heard %v, want one direct vote and no 2b", kinds)
		}
		if h.sites[2].part.aborts != 1 || h.sites[1].part.aborts != 1 {
			t.Errorf("aborts = %d at the subordinate, %d at the coordinator; want 1 and 1",
				h.sites[2].part.aborts, h.sites[1].part.aborts)
		}
	})
}

// The family may be resolved while the combined force is in flight.
// The voter then finds it gone and says nothing: no 2b for a
// transaction it has already undone.
func TestPaxosFamilyDiesDuringCombinedForce(t *testing.T) {
	hook := &hookStore{suffix: combinedBlock}
	h, atLeader := paxosPair(t, hook)
	var txn tid.TID
	hook.during = func() {
		h.sites[2].m.Deliver(&wire.Msg{Kind: wire.KAbort, TID: txn, From: 1, To: 2})
		h.k.Sleep(5 * time.Millisecond)
	}
	h.run(t, func() {
		txn = h.beginDistributed(t, 2)
		h.k.Go("commit", func() { h.sites[1].m.Commit(txn, paxosF1) }) //nolint:errcheck // the outcome is not this test's subject
		h.k.Sleep(15 * time.Millisecond)                               // past the force, short of the leader's first retry
		if !hook.fired {
			t.Fatal("the fold did not run")
		}
		if h.sites[2].part.aborts != 1 {
			t.Errorf("subordinate aborts = %d, want 1", h.sites[2].part.aborts)
		}
		if kinds := kindsFrom(*atLeader, 2); len(kinds) != 0 {
			t.Errorf("leader heard %v from a voter whose family died mid-force", kinds)
		}
		h.k.Sleep(time.Second) // let the leader finish on its own
	})
}

// fakeLeader registers site 3 as a datagram sink standing in for a
// coordinator, so a test can hand one site the exact messages it wants
// and read the answers.
func fakeLeader(h *harness) *[]*wire.Msg {
	var got []*wire.Msg
	h.net.Register(3, func(d transport.Datagram) {
		if msg, ok := d.Payload.(*wire.Msg); ok {
			got = append(got, msg)
		}
	})
	return &got
}

// takeoverBallot is round 1 of site 3's takeover ballots.
const takeoverBallot = uint64(1)<<32 | 3

// A vote request for a family this site has forgotten (it crashed and
// lost its RM state) still reaches the acceptor it hosts: the RM
// answers No, and the acceptor holds the leader's folded vote.
func TestPaxosPrepareForForgottenFamilyStillAccepts(t *testing.T) {
	h := newHarness(t, 2)
	got := fakeLeader(h)
	h.run(t, func() {
		txn := tid.Top(tid.MakeFamily(3, 1))
		lists := []tid.SiteID{2, 3}
		h.sites[2].m.Deliver(&wire.Msg{
			Kind: wire.KPaxosPrepare, TID: txn, From: 3, To: 2, Sites: lists, Acceptors: lists,
			Votes: []wire.SiteVote{{Site: 3, Vote: wire.VoteYes}},
		})
		h.k.Sleep(10 * time.Millisecond)
		h.sites[2].m.Deliver(&wire.Msg{
			Kind: wire.KPaxos1a, TID: txn, From: 3, To: 2, Ballot: takeoverBallot, Sites: lists, Acceptors: lists,
		})
		h.k.Sleep(10 * time.Millisecond)
		if len(*got) != 2 {
			t.Fatalf("site 2 answered %v, want a vote and a 1b", kindsFrom(*got, 2))
		}
		if v := (*got)[0]; v.Kind != wire.KPaxosVote || v.Vote != wire.VoteNo {
			t.Errorf("RM answered %v %v, want a No vote", v.Kind, v.Vote)
		}
		want := wire.PaxosAccepted{Site: 3, Ballot: 0, Vote: wire.VoteYes}
		if b := (*got)[1]; b.Kind != wire.KPaxos1b || len(b.Accepted) != 1 || b.Accepted[0] != want {
			t.Errorf("acceptor reported %v %+v, want a 1b holding %+v", b.Kind, b.Accepted, want)
		}
	})
}

// A takeover in progress disables the last-voter fold: a site that has
// promised a ballot above 0 forces its prepared record alone, its
// acceptor refuses the ballot-0 values, and its vote goes out as a 2a.
func TestPaxosTakeoverBallotDisablesFold(t *testing.T) {
	h := newHarness(t, 2)
	got := fakeLeader(h)
	h.run(t, func() {
		txn := tid.Top(tid.MakeFamily(3, 1))
		lists := []tid.SiteID{2, 3}
		s := h.sites[2]
		if err := s.m.Join(txn, tid.TID{}, s.part); err != nil {
			t.Fatal(err)
		}
		s.m.Deliver(&wire.Msg{
			Kind: wire.KPaxos1a, TID: txn, From: 3, To: 2, Ballot: takeoverBallot, Sites: lists, Acceptors: lists,
		})
		h.k.Sleep(10 * time.Millisecond)
		s.m.Deliver(&wire.Msg{
			Kind: wire.KPaxosPrepare, TID: txn, From: 3, To: 2, Sites: lists, Acceptors: lists,
			Votes: []wire.SiteVote{{Site: 3, Vote: wire.VoteYes}},
		})
		h.k.Sleep(10 * time.Millisecond)
		kinds := kindsFrom(*got, 2)
		if len(kinds) != 2 || kinds[0] != wire.KPaxos1b || kinds[1] != wire.KPaxos2a {
			t.Errorf("site 2 sent %v, want a 1b then a 2a", kinds)
		}
		if n := countRecords(t, s.log, wal.RecPaxosPrepare); n != 1 {
			t.Errorf("prepared records = %d, want 1", n)
		}
		if n := countRecords(t, s.log, wal.RecPaxosAccept); n != 0 {
			t.Errorf("accepted records = %d: a ballot-0 value was accepted under a higher promise", n)
		}
	})
}

// A lost folded 2b is all the leader would have heard from the last
// voter. The leader's retried vote request makes the voter re-cast,
// and the transaction still commits.
func TestPaxosLostFolded2bIsRecast(t *testing.T) {
	h := newHarness(t, 2)
	dropped := false
	h.net.SetShaper(func(from, to tid.SiteID, payload any, _ bool) transport.Shape {
		if msg, ok := payload.(*wire.Msg); ok && msg.Kind == wire.KPaxos2b && !dropped {
			dropped = true
			return transport.Shape{Drop: true}
		}
		return transport.Shape{Drop: false}
	})
	h.run(t, func() {
		txn := h.beginDistributed(t, 2)
		if out, err := h.sites[1].m.Commit(txn, paxosF1); err != nil || out != wire.OutcomeCommit {
			t.Fatalf("Commit = %v, %v", out, err)
		}
		h.k.Sleep(100 * time.Millisecond)
		if !dropped {
			t.Fatal("no 2b was sent")
		}
		if r := h.sites[1].m.Stats().Retransmits; r == 0 {
			t.Error("the leader never retried, yet the only 2b was lost")
		}
		for id, s := range h.sites {
			if s.part.commits != 1 || s.part.aborts != 0 {
				t.Errorf("site %d: commits = %d, aborts = %d; want 1, 0", id, s.part.commits, s.part.aborts)
			}
		}
	})
}

// Delayed commit-acks owed to a fan-out's destination ride it. Sites 1
// and 2 take turns coordinating, so each vote request goes to a site
// the sender owes the previous transaction's ack; with the ack flusher
// slowed out of the way, every ack but the last travels that way, and
// each is delivered once: one END record per transaction, nothing left
// for the flusher to send again.
func TestFanoutCarriesOwedAcksExactlyOnce(t *testing.T) {
	h := newHarness(t, 0)
	h.ackFlush = time.Second
	// Wait for the slowed flusher rather than re-send the outcome,
	// which would have the subordinate acknowledge twice.
	h.ackWait = 2 * h.ackFlush
	for id := tid.SiteID(1); id <= 2; id++ {
		h.addSite(id)
	}
	const txns = 6
	h.run(t, func() {
		for i := 0; i < txns; i++ {
			coord, sub := tid.SiteID(1+i%2), tid.SiteID(2-i%2)
			txn := h.beginAt(t, coord, sub)
			if _, err := h.sites[coord].m.Commit(txn, core.Options{}); err != nil {
				t.Fatalf("commit %d: %v", i, err)
			}
			h.k.Sleep(50 * time.Millisecond) // the subordinate's lazy commit record is durable, its ack queued
		}
		h.k.Sleep(3 * time.Second)
		piggybacked, standalone := 0, 0
		for id, s := range h.sites {
			st := s.m.Stats()
			piggybacked += st.AcksPiggybacked
			standalone += st.AcksStandalone
			if n := countRecords(t, s.log, wal.RecEnd); n != txns/2 {
				t.Errorf("site %d END records = %d, want %d", id, n, txns/2)
			}
		}
		if piggybacked != txns-1 || standalone != 1 {
			t.Errorf("acks: %d piggybacked, %d standalone; want %d and 1", piggybacked, standalone, txns-1)
		}
	})
}
