package core_test

import (
	"fmt"
	"testing"
	"time"

	"camelot/internal/core"
	"camelot/internal/tid"
	"camelot/internal/transport"
	"camelot/internal/wal"
	"camelot/internal/wire"
)

// Handler-level tests of the commit skeleton's phase one, one table
// for every protocol: the steps are shared code, so each protocol must
// show the same behaviour at each of them.

// phaseOne is the test's own statement of what each protocol calls its
// phase-one exchange and the record behind a Yes vote.
var phaseOne = map[wire.Protocol]struct {
	prepare, vote wire.Kind
	prepared      wal.RecType
}{
	wire.TwoPhase:    {wire.KPrepare, wire.KVote, wal.RecPrepare},
	wire.NonBlocking: {wire.KNBPrepare, wire.KNBVote, wal.RecPrepare},
	wire.Paxos:       {wire.KPaxosPrepare, wire.KPaxosVote, wal.RecPaxosPrepare},
}

// requestFrom3 is coordinator 3's vote request to site 2 under p. A
// Paxos request names acceptors; when site 2 is one of them the request
// also carries the leader's own vote, as the leader's 2a.
func requestFrom3(p wire.Protocol, txn tid.TID, acceptors []tid.SiteID, leaderVote wire.Vote) *wire.Msg {
	msg := &wire.Msg{Kind: phaseOne[p].prepare, TID: txn, From: 3, To: 2}
	switch p {
	case wire.TwoPhase:
	case wire.NonBlocking:
		msg.Sites, msg.CommitQuorum, msg.AbortQuorum = []tid.SiteID{2, 3}, 2, 1
	case wire.Paxos:
		msg.Sites, msg.Acceptors = []tid.SiteID{2, 3}, acceptors
		if len(acceptors) > 1 {
			msg.Votes = []wire.SiteVote{{Site: 3, Vote: leaderVote}}
		}
	}
	return msg
}

// votesOf2 lists what site 2 has told the coordinator its vote is: a
// vote datagram under every protocol, and under Paxos also the 2a it
// proposes with and the 2b its own acceptor reports.
func votesOf2(p wire.Protocol, msgs []*wire.Msg) []wire.Vote {
	var out []wire.Vote
	for _, m := range msgs {
		switch m.Kind {
		case phaseOne[p].vote:
			out = append(out, m.Vote)
		case wire.KPaxos2a, wire.KPaxos2b:
			for _, sv := range m.Votes {
				if sv.Site == 2 {
					out = append(out, sv.Vote)
				}
			}
		default:
			out = append(out, wire.VoteInvalid) // nothing else may leave during phase one
		}
	}
	return out
}

func TestPhaseOneAtSubordinate(t *testing.T) {
	type variant struct {
		name      string
		p         wire.Protocol
		acceptors []tid.SiteID // Paxos: whether site 2 hosts an acceptor
	}
	var variants []variant
	for _, p := range wire.Protocols() {
		variants = append(variants, variant{p.String(), p, []tid.SiteID{3}})
	}
	variants = append(variants, variant{"paxos-acceptor-host", wire.Paxos, []tid.SiteID{2, 3}})

	// setup builds subject site 2 with hook on its log and site 3 as a
	// sink standing in for the coordinator.
	setup := func(t *testing.T, hook *hookStore) (*harness, *[]*wire.Msg, tid.TID) {
		h := newHarness(t, 0)
		h.wrapStore = func(s wal.Store) wal.Store {
			hook.Store = s
			return hook
		}
		h.addSite(2)
		return h, fakeLeader(h), tid.Top(tid.MakeFamily(3, 1))
	}
	join := func(t *testing.T, h *harness, txn tid.TID) *site {
		s := h.sites[2]
		if err := s.m.Join(txn, nil, s.part); err != nil {
			t.Fatal(err)
		}
		return s
	}

	for _, v := range variants {
		p := v.p
		request := func(txn tid.TID) *wire.Msg { return requestFrom3(p, txn, v.acceptors, wire.VoteReadOnly) }
		forcedBlock := phaseOne[p].prepared.String()
		hostsAcceptor := len(v.acceptors) > 1
		if hostsAcceptor {
			forcedBlock = combinedBlock // holding the leader's vote, site 2 votes last and folds
		}

		t.Run(v.name+"/unknown family votes No", func(t *testing.T) {
			if hostsAcceptor {
				t.Skip("the acceptor role outlives the RM: TestPaxosPrepareForForgottenFamilyStillAccepts")
			}
			h, got, txn := setup(t, &hookStore{suffix: "never"})
			h.run(t, func() {
				h.sites[2].m.Deliver(request(txn))
				h.k.Sleep(10 * time.Millisecond)
				if len(*got) != 1 || (*got)[0].Kind != phaseOne[p].vote || (*got)[0].Vote != wire.VoteNo {
					t.Errorf("answered %v %v, want one %v No", kindsFrom(*got, 2), votesOf2(p, *got), phaseOne[p].vote)
				}
				if n := h.sites[2].log.Appends(); n != 0 {
					t.Errorf("wrote %d records for a transaction it has no record of", n)
				}
			})
		})

		t.Run(v.name+"/duplicate while prepared re-answers Yes", func(t *testing.T) {
			h, got, txn := setup(t, &hookStore{suffix: "never"})
			h.run(t, func() {
				s := join(t, h, txn)
				s.m.Deliver(request(txn))
				h.k.Sleep(10 * time.Millisecond)
				first := len(*got)
				s.m.Deliver(request(txn))
				h.k.Sleep(10 * time.Millisecond)
				votes := votesOf2(p, *got)
				if first == 0 || len(votes) <= first {
					t.Fatalf("answers %v: want some to the request and more to its duplicate", votes)
				}
				for _, vote := range votes {
					if vote != wire.VoteYes {
						t.Errorf("answers %v, want every one Yes", votes)
						break
					}
				}
				if s.part.asked != 1 {
					t.Errorf("vote round ran %d times, want 1", s.part.asked)
				}
				if n := countRecords(t, s.log, phaseOne[p].prepared); n != 1 {
					t.Errorf("%v records = %d, want 1", phaseOne[p].prepared, n)
				}
			})
		})

		t.Run(v.name+"/read-only writes nothing", func(t *testing.T) {
			h, got, txn := setup(t, &hookStore{suffix: "never"})
			h.run(t, func() {
				s := join(t, h, txn)
				s.part.vote = wire.VoteReadOnly
				s.m.Deliver(request(txn))
				h.k.Sleep(10 * time.Millisecond)
				votes := votesOf2(p, *got)
				if len(votes) == 0 {
					t.Fatal("never answered")
				}
				for _, vote := range votes {
					if vote != wire.VoteReadOnly {
						t.Errorf("answers %v, want every one ReadOnly", votes)
						break
					}
				}
				if s.part.commits != 1 {
					t.Errorf("participant released %d times, want 1", s.part.commits)
				}
				// A second request shows whether the family was forgotten:
				// to the RM it is then an unknown transaction. A Paxos
				// acceptor host stays, and re-casts.
				first := len(*got)
				s.m.Deliver(request(txn))
				h.k.Sleep(10 * time.Millisecond)
				again := votesOf2(p, (*got)[first:])
				want := wire.VoteNo
				if hostsAcceptor {
					want = wire.VoteReadOnly
				}
				if len(again) == 0 || again[0] != want {
					t.Errorf("a second request was answered %v, want %v", again, want)
				}
				if n := s.log.Appends(); n != 0 {
					t.Errorf("read-only subordinate wrote %d records", n)
				}
			})
		})

		t.Run(v.name+"/failed prepared force votes No and aborts", func(t *testing.T) {
			hook := &hookStore{suffix: forcedBlock, fail: true}
			h, got, txn := setup(t, hook)
			h.run(t, func() {
				s := join(t, h, txn)
				s.m.Deliver(requestFrom3(p, txn, v.acceptors, wire.VoteYes))
				h.k.Sleep(10 * time.Millisecond)
				if !hook.fired {
					t.Fatalf("no block ending in %s was written", forcedBlock)
				}
				if len(*got) != 1 || (*got)[0].Kind != phaseOne[p].vote || (*got)[0].Vote != wire.VoteNo {
					t.Errorf("answered %v %v, want one %v No", kindsFrom(*got, 2), votesOf2(p, *got), phaseOne[p].vote)
				}
				if s.part.aborts != 1 {
					t.Errorf("participant aborts = %d, want 1", s.part.aborts)
				}
			})
		})

		t.Run(v.name+"/family forgotten during the force says nothing", func(t *testing.T) {
			hook := &hookStore{suffix: forcedBlock}
			h, got, txn := setup(t, hook)
			hook.during = func() {
				h.sites[2].m.Deliver(&wire.Msg{Kind: wire.KAbort, TID: txn, From: 3, To: 2})
				h.k.Sleep(5 * time.Millisecond)
			}
			h.run(t, func() {
				s := join(t, h, txn)
				s.m.Deliver(requestFrom3(p, txn, v.acceptors, wire.VoteYes))
				h.k.Sleep(15 * time.Millisecond)
				if !hook.fired {
					t.Fatalf("no block ending in %s was written", forcedBlock)
				}
				if len(*got) != 0 {
					t.Errorf("sent %v for a family that died mid-force", kindsFrom(*got, 2))
				}
				if s.part.aborts != 1 {
					t.Errorf("participant aborts = %d, want 1", s.part.aborts)
				}
			})
		})
	}
}

// A vote counts only under the protocol the family is committing with.
// Sites 2 and 3 are cut off, so neither has prepared and no acceptor
// has accepted anything; Yes votes of another protocol's kind arrive
// for both. Counting them commits a transaction nobody prepared.
func TestVoteOfAnotherProtocolsKindIsDropped(t *testing.T) {
	for _, p := range wire.Protocols() {
		for _, foreign := range wire.Protocols() {
			if foreign == p {
				continue
			}
			kind := phaseOne[foreign].vote
			t.Run(fmt.Sprintf("%v family, %v", p, kind), func(t *testing.T) {
				h := newHarness(t, 3)
				cut := true
				h.net.SetShaper(func(from, to tid.SiteID, payload any, _ bool) transport.Shape {
					return transport.Shape{Drop: cut && (from == 1 || to == 1)}
				})
				h.run(t, func() {
					txn := h.beginDistributed(t, 2, 3)
					done := false
					var out wire.Outcome
					h.k.Go("commit", func() {
						out, _ = h.sites[1].m.Commit(txn, core.Options{Protocol: p, PaxosF: 1})
						done = true
					})
					h.k.Sleep(10 * time.Millisecond) // the coordinator is collecting votes
					for _, from := range []tid.SiteID{2, 3} {
						h.sites[1].m.Deliver(&wire.Msg{Kind: kind, TID: txn, From: from, To: 1, Vote: wire.VoteYes})
					}
					h.k.Sleep(10 * time.Millisecond)
					if done {
						t.Errorf("client answered %v with both subordinates unreachable", out)
					}
					if n := countRecords(t, h.sites[1].log, wal.RecCommit); n != 0 {
						t.Errorf("coordinator wrote %d commit records on stray votes", n)
					}
					for id := tid.SiteID(2); id <= 3; id++ {
						if n := h.sites[id].log.Appends(); n != 0 {
							t.Errorf("site %d wrote %d records without hearing from the coordinator", id, n)
						}
					}
					// Healed, the protocol's own votes commit it.
					cut = false
					for i := 0; i < 100 && !done; i++ {
						h.k.Sleep(50 * time.Millisecond)
					}
					if !done || out != wire.OutcomeCommit {
						t.Errorf("after the heal: done=%v outcome=%v, want COMMIT", done, out)
					}
				})
			})
		}
	}
}
