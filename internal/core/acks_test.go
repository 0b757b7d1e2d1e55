package core_test

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"camelot/internal/core"
	"camelot/internal/tid"
	"camelot/internal/transport"
	"camelot/internal/wal"
	"camelot/internal/wire"
)

// The outcome acknowledgement's one path (messaging.go): owed under
// every protocol the same way, held for a datagram to ride on, sent
// alone only after a full AckFlushInterval of silence, counted only
// where it is owed. One table for every protocol, since the path is
// shared code.

// ackHold is the tests' AckFlushInterval: long against the harness's
// 10 ms log flusher, so "held" and "left" are far apart.
const ackHold = 100 * time.Millisecond

// ackVariant is one way a site comes to owe an acknowledgement.
type ackVariant struct {
	name  string
	p     wire.Protocol
	abort bool // change 4: a non-blocking abort is acknowledged as its commit is
}

func ackVariants() []ackVariant {
	var vs []ackVariant
	for _, p := range wire.Protocols() {
		vs = append(vs, ackVariant{name: p.String(), p: p})
	}
	return append(vs, ackVariant{name: "nb-abort", p: wire.NonBlocking, abort: true})
}

// outcomeFrom3 is coordinator 3's outcome notice to site 2.
func (v ackVariant) outcomeFrom3(txn tid.TID) *wire.Msg {
	msg := &wire.Msg{Kind: wire.KCommit, TID: txn, From: 3, To: 2}
	if v.p == wire.NonBlocking {
		msg.Kind, msg.Outcome = wire.KNBOutcome, wire.OutcomeCommit
		if v.abort {
			msg.Outcome = wire.OutcomeAbort
		}
	}
	return msg
}

// ackSubject builds site 2 alone, holding acks for ackHold, with site 3
// a sink standing in for its coordinator.
func ackSubject(t *testing.T) (*harness, *[]*wire.Msg) {
	h := newHarness(t, 0)
	h.ackFlush = ackHold
	h.addSite(2)
	return h, fakeLeader(h)
}

// prepareAt2 takes family n of coordinator 3 through phase one at site 2.
func (v ackVariant) prepareAt2(t *testing.T, h *harness, n uint32) tid.TID {
	t.Helper()
	txn := tid.Top(tid.MakeFamily(3, n))
	s := h.sites[2]
	if err := s.m.Join(txn, nil, s.part); err != nil {
		t.Fatal(err)
	}
	s.m.Deliver(requestFrom3(v.p, txn, []tid.SiteID{3}, wire.VoteYes))
	h.k.Sleep(10 * time.Millisecond)
	return txn
}

// owe leaves site 2 owing site 3 the acknowledgement of a fresh family's
// outcome: the ack is queued and its deadline far from due.
func (v ackVariant) owe(t *testing.T, h *harness) tid.TID {
	t.Helper()
	txn := v.prepareAt2(t, h, 1)
	h.sites[2].m.Deliver(v.outcomeFrom3(txn))
	h.k.Sleep(30 * time.Millisecond) // a lazy commit record is durable by now
	return txn
}

// acksIn lists the acknowledgements msgs carry, piggybacked or not.
func acksIn(msgs []*wire.Msg) []tid.TID {
	var out []tid.TID
	for _, m := range msgs {
		out = append(out, m.AckTIDs...)
		if m.Kind == wire.KCommitAck && !m.TID.IsZero() {
			out = append(out, m.TID)
		}
	}
	return out
}

func TestAckPath(t *testing.T) {
	for _, v := range ackVariants() {
		// Whatever site 2 next sends site 3 carries the ack, and the
		// deadline is called off: nothing follows on its own.
		rides := []struct {
			name    string
			trigger func(unknown tid.TID) *wire.Msg
			reply   wire.Kind
		}{
			{"the answer to an inquiry", func(u tid.TID) *wire.Msg {
				return &wire.Msg{Kind: wire.KInquire, TID: u, From: 3, To: 2}
			}, wire.KAbort},
			{"a vote", func(u tid.TID) *wire.Msg {
				return requestFrom3(v.p, u, []tid.SiteID{3}, wire.VoteYes)
			}, phaseOne[v.p].vote},
			{"a status response", func(u tid.TID) *wire.Msg {
				return &wire.Msg{Kind: wire.KNBStatusReq, TID: u, From: 3, To: 2}
			}, wire.KNBStatusResp},
		}
		for _, ride := range rides {
			t.Run(v.name+"/rides "+ride.name, func(t *testing.T) {
				h, got := ackSubject(t)
				h.run(t, func() {
					txn := v.owe(t, h)
					before := len(*got)
					h.sites[2].m.Deliver(ride.trigger(tid.Top(tid.MakeFamily(3, 99))))
					h.k.Sleep(5 * time.Millisecond)
					sent := (*got)[before:]
					if len(sent) != 1 || sent[0].Kind != ride.reply || !slices.Equal(sent[0].AckTIDs, []tid.TID{txn}) {
						t.Fatalf("sent %v carrying %v, want one %v carrying the ack of %v",
							kindsFrom(sent, 2), acksIn(sent), ride.reply, txn)
					}
					h.k.Sleep(3 * ackHold)
					if later := (*got)[before+1:]; len(later) != 0 {
						t.Errorf("sent %v after the ack had its ride", kindsFrom(later, 2))
					}
					if st := h.sites[2].m.Stats(); st.AcksPiggybacked != 1 || st.AcksStandalone != 0 {
						t.Errorf("acks: %d piggybacked, %d standalone; want 1 and 0", st.AcksPiggybacked, st.AcksStandalone)
					}
				})
			})
		}

		// With nothing going its way the batch leaves alone a full hold
		// after it opened — not at some sweep's next tick, and no later
		// than the bound a coordinator's ack wait is derived from — and it
		// leaves whole: an ack that joined later travels with it.
		t.Run(v.name+"/silence sends the whole batch after one full hold", func(t *testing.T) {
			h, _ := ackSubject(t)
			type departure struct {
				at  time.Duration
				msg *wire.Msg
			}
			var left []departure
			h.net.SetShaper(func(from, to tid.SiteID, payload any, _ bool) transport.Shape {
				if msg, ok := payload.(*wire.Msg); ok && msg.Kind == wire.KCommitAck {
					left = append(left, departure{h.k.Now(), msg})
				}
				return transport.Shape{Drop: false}
			})
			h.run(t, func() {
				// Open the batch 60 ms into a 100 ms period, where a
				// free-running sweep would take it 40 ms later. Both
				// outcomes arrive before a prepared site's own timer has it
				// send its coordinator anything, which would be a ride.
				h.k.Sleep(3*ackHold + 40*time.Millisecond - h.k.Now())
				a, b := v.prepareAt2(t, h, 1), v.prepareAt2(t, h, 2)
				opened := h.k.Now()
				h.sites[2].m.Deliver(v.outcomeFrom3(a))
				h.k.Sleep(10 * time.Millisecond)
				h.sites[2].m.Deliver(v.outcomeFrom3(b))
				h.k.Sleep(3 * ackHold)
				if len(left) != 1 {
					t.Fatalf("%d ack datagrams left, want 1", len(left))
				}
				if acks := left[0].msg.AckTIDs; len(acks) != 2 || !slices.Contains(acks, a) || !slices.Contains(acks, b) {
					t.Errorf("the datagram carried %v, want %v and %v", acks, a, b)
				}
				// A lazy commit record takes up to two 10 ms log-flusher
				// ticks and a 1 ms write to be durable; only then is its
				// ack owed.
				held, bound := left[0].at-opened, ackHold+21*time.Millisecond
				if held < ackHold || held > bound {
					t.Errorf("the batch left %v after the first outcome arrived, want between %v and %v", held, ackHold, bound)
				}
				if st := h.sites[2].m.Stats(); st.AcksStandalone != 2 || st.AcksPiggybacked != 0 {
					t.Errorf("acks: %d standalone, %d piggybacked; want 2 and 0", st.AcksStandalone, st.AcksPiggybacked)
				}
			})
		})

		// An ack counts only where it is owed. At the site driving the
		// notify phase a stray or duplicate one changes nothing.
		t.Run(v.name+"/only an owed ack counts at the coordinator", func(t *testing.T) {
			h := newHarness(t, 0)
			h.ackFlush = 2 * time.Second // the subordinates' own acks stay out of the way
			h.ackWait = time.Minute
			for id := tid.SiteID(1); id <= 3; id++ {
				h.addSite(id)
			}
			h.run(t, func() {
				owed := []tid.SiteID{2, 3}
				if v.abort {
					h.sites[3].part.vote = wire.VoteNo // it knows; only site 2 is told, and owes
					owed = owed[:1]
				}
				txn := h.beginDistributed(t, 2, 3)
				_, err := h.sites[1].m.Commit(txn, core.Options{Protocol: v.p, PaxosF: 1})
				if aborted := errors.Is(err, core.ErrAborted); aborted != v.abort || (err != nil && !aborted) {
					t.Fatalf("Commit = %v", err)
				}
				h.k.Sleep(50 * time.Millisecond)
				coord := h.sites[1]
				ack := func(from tid.SiteID) {
					coord.m.Deliver(&wire.Msg{Kind: wire.KCommitAck, From: from, To: 1, AckTIDs: []tid.TID{txn}})
					h.k.Sleep(time.Millisecond)
				}
				strays := []tid.SiteID{9}
				if v.abort {
					strays = append(strays, 3)
				}
				for _, from := range strays {
					ack(from)
				}
				for _, from := range owed[:len(owed)-1] {
					ack(from)
					ack(from) // and its duplicate
				}
				if n := countRecords(t, coord.log, wal.RecEnd); n != 0 {
					t.Fatalf("the coordinator ended the transaction with %v's ack outstanding", owed[len(owed)-1])
				}
				ack(owed[len(owed)-1])
				if n := countRecords(t, coord.log, wal.RecEnd); n != 1 {
					t.Errorf("END records = %d after the last owed ack, want 1", n)
				}
			})
		})

		// At a subordinate nothing is owed: an ack for its own copy of
		// the family, bare or piggybacked, must not end it.
		t.Run(v.name+"/an ack does not end the family at a subordinate", func(t *testing.T) {
			h, _ := ackSubject(t)
			h.run(t, func() {
				txn := v.prepareAt2(t, h, 1)
				s := h.sites[2]
				s.m.Deliver(&wire.Msg{Kind: wire.KCommitAck, TID: txn, From: 3, To: 2})
				s.m.Deliver(&wire.Msg{Kind: wire.KInquire, TID: tid.Top(tid.MakeFamily(3, 99)), From: 3, To: 2, AckTIDs: []tid.TID{txn}})
				h.k.Sleep(5 * time.Millisecond)
				if n := countRecords(t, s.log, wal.RecEnd); n != 0 {
					t.Errorf("the subordinate wrote %d END records", n)
				}
				s.m.Deliver(v.outcomeFrom3(txn))
				h.k.Sleep(30 * time.Millisecond)
				if applied := s.part.commits + s.part.aborts; applied != 1 {
					t.Errorf("the outcome was applied %d times, want 1: the family was gone", applied)
				}
			})
		})

		// A re-sent outcome means the sender is on its retry timer: the
		// answer goes at once, bare, not into the next batch.
		t.Run(v.name+"/a re-sent outcome for a forgotten family is re-acked at once", func(t *testing.T) {
			h, got := ackSubject(t)
			h.run(t, func() {
				txn := v.owe(t, h)
				h.k.Sleep(2 * ackHold) // the first ack has left
				before := len(*got)
				h.sites[2].m.Deliver(v.outcomeFrom3(txn))
				h.k.Sleep(5 * time.Millisecond)
				sent := (*got)[before:]
				if len(sent) != 1 || sent[0].Kind != wire.KCommitAck || sent[0].TID != txn {
					t.Fatalf("sent %v acknowledging %v within 5 ms, want one bare COMMIT-ACK of %v", kindsFrom(sent, 2), acksIn(sent), txn)
				}
				h.k.Sleep(3 * ackHold)
				if later := (*got)[before+1:]; len(later) != 0 {
					t.Errorf("sent %v after the re-ack", kindsFrom(later, 2))
				}
			})
		})

		t.Run(v.name+"/Close with a deadline pending sends nothing", func(t *testing.T) {
			h, got := ackSubject(t)
			h.run(t, func() {
				v.owe(t, h)
				before := len(*got)
				h.sites[2].m.Close()
				h.k.Sleep(3 * ackHold)
				if sent := (*got)[before:]; len(sent) != 0 {
					t.Errorf("a closed manager sent %v", kindsFrom(sent, 2))
				}
			})
		})
	}
}

// A batch larger than one datagram holds leaves in pieces that each fit
// (wire.AckRoom): a ride takes what its datagram has room for, and the
// rest stays under the batch's deadline, which sends it as full
// KCommitAck datagrams. Site 2 owes coordinator 3 the acks of 300
// families at once; every ack arrives exactly once, no datagram
// outgrows wire.MaxDatagram, and none leaves later than one full hold
// after the batch opened.
func TestAckBatchLargerThanOneDatagram(t *testing.T) {
	const owed = 300
	full := wire.AckRoom(&wire.Msg{Kind: wire.KCommitAck})
	for _, v := range ackVariants() {
		for _, ride := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/ride=%v", v.name, ride), func(t *testing.T) {
				h, got := ackSubject(t)
				type departure struct {
					at  time.Duration
					msg *wire.Msg
				}
				var left []departure
				h.net.SetShaper(func(from, to tid.SiteID, payload any, _ bool) transport.Shape {
					if msg, ok := payload.(*wire.Msg); ok && from == 2 {
						left = append(left, departure{h.k.Now(), msg})
					}
					return transport.Shape{}
				})
				h.run(t, func() {
					s := h.sites[2]
					var txns []tid.TID
					for n := uint32(1); n <= owed; n++ {
						txn := tid.Top(tid.MakeFamily(3, n))
						if err := s.m.Join(txn, nil, s.part); err != nil {
							t.Fatal(err)
						}
						s.m.Deliver(requestFrom3(v.p, txn, []tid.SiteID{3}, wire.VoteYes))
						txns = append(txns, txn)
					}
					h.k.Sleep(10 * time.Millisecond)
					opened, before := h.k.Now(), len(left)
					for _, txn := range txns {
						s.m.Deliver(v.outcomeFrom3(txn))
					}
					h.k.Sleep(30 * time.Millisecond) // every lazy commit record is durable
					if ride {
						reply := &wire.Msg{Kind: wire.KAbort, TID: tid.Top(tid.MakeFamily(3, 999))}
						s.m.Deliver(&wire.Msg{Kind: wire.KInquire, TID: reply.TID, From: 3, To: 2})
						h.k.Sleep(5 * time.Millisecond)
						if last := left[len(left)-1].msg; last.Kind != wire.KAbort || len(last.AckTIDs) != wire.AckRoom(reply) {
							t.Fatalf("the answer to the inquiry was a %v carrying %d acks, want a %v carrying %d",
								last.Kind, len(last.AckTIDs), wire.KAbort, wire.AckRoom(reply))
						}
					}
					h.k.Sleep(3 * ackHold)

					var acked []tid.TID
					for _, d := range left[before:] {
						if n := wire.EncodedSize(d.msg); n > wire.MaxDatagram {
							t.Errorf("a %d-byte %v left, over the %d-byte limit", n, d.msg.Kind, wire.MaxDatagram)
						}
						if acks := acksIn([]*wire.Msg{d.msg}); len(acks) > 0 {
							acked = append(acked, acks...)
							if held, bound := d.at-opened, ackHold+21*time.Millisecond; held > bound {
								t.Errorf("%d acks left %v after the batch opened, want at most %v", len(acks), held, bound)
							}
						}
					}
					slices.SortFunc(acked, func(a, b tid.TID) int { return cmp.Compare(a.Family, b.Family) })
					if !slices.Equal(acked, txns) {
						t.Errorf("%d acks left for %d owed, want each exactly once", len(acked), owed)
					}
					if recv := acksIn(*got); len(recv) != owed {
						t.Errorf("coordinator 3 received %d acks, want %d", len(recv), owed)
					}
					st := s.m.Stats()
					if st.AcksPiggybacked+st.AcksStandalone != owed {
						t.Errorf("acks: %d piggybacked + %d standalone, want %d", st.AcksPiggybacked, st.AcksStandalone, owed)
					}
					if rest := owed - st.AcksPiggybacked; (rest+full-1)/full != countKind(kindsFrom(*got, 2), wire.KCommitAck) {
						t.Errorf("%d standalone acks left in %d COMMIT-ACK datagrams, want them %d to a datagram",
							rest, countKind(kindsFrom(*got, 2), wire.KCommitAck), full)
					}
				})
			})
		}
	}
}

// A promoted Paxos leader drives the notify phase as the coordinator it
// replaced would have, acknowledgements included. The leader dies once
// the acceptors hold every vote; a survivor takes over, decides commit
// and tells the others. When the last of them has acknowledged, the
// promoted site ends the transaction and stops re-sending the outcome.
func TestPaxosPromotedLeaderDrainsItsAcks(t *testing.T) {
	h := newHarness(t, 3)
	h.net.SetShaper(func(from, to tid.SiteID, payload any, _ bool) transport.Shape {
		// The leader never hears its acceptors, so it never decides.
		msg, ok := payload.(*wire.Msg)
		return transport.Shape{Drop: ok && msg.Kind == wire.KPaxos2b && to == 1}
	})
	retransmits := func() int {
		return h.sites[2].m.Stats().Retransmits + h.sites[3].m.Stats().Retransmits
	}
	h.run(t, func() {
		txn := h.beginDistributed(t, 2, 3)
		h.k.Go("commit", func() { h.sites[1].m.Commit(txn, paxosF1) }) //nolint:errcheck // the leader dies with the call pending
		h.k.Sleep(15 * time.Millisecond)                               // both acceptors hold the full batch; short of the leader's first retry
		h.sites[1].m.Close()
		h.net.SetDown(1, true)
		h.k.Sleep(time.Second) // re-casts, then takeover
		promotions := 0
		for id := tid.SiteID(2); id <= 3; id++ {
			s := h.sites[id]
			promotions += s.m.Stats().Promotions
			if s.part.commits != 1 {
				t.Fatalf("site %d commits = %d after the takeover, want 1", id, s.part.commits)
			}
		}
		if promotions == 0 {
			t.Fatal("no survivor took over")
		}
		// The dead leader voted Yes, so its ack is owed too; recovered, it
		// would send this.
		for id := tid.SiteID(2); id <= 3; id++ {
			h.sites[id].m.Deliver(&wire.Msg{Kind: wire.KCommitAck, TID: txn, From: 1, To: id})
		}
		h.k.Sleep(100 * time.Millisecond)
		ended := 0
		for id := tid.SiteID(2); id <= 3; id++ {
			ended += countRecords(t, h.sites[id].log, wal.RecEnd)
		}
		if ended == 0 {
			t.Error("every ack is in and no promoted leader wrote END")
		}
		before := retransmits()
		h.k.Sleep(2 * time.Second)
		if after := retransmits(); after != before {
			t.Errorf("a promoted leader re-sent %d datagrams after its last ack", after-before)
		}
	})
}

// slowPart opens the window a real host opens by descheduling a
// thread: its CommitFamily takes a moment, during which the family's
// lock is free.
type slowPart struct {
	fakePart
	during func()
}

func (p *slowPart) CommitFamily(f tid.FamilyID) {
	if during := p.during; during != nil {
		p.during = nil
		during()
	}
	p.fakePart.CommitFamily(f)
}

// A coordinator whose ack is late re-sends its COMMIT, and the copy can
// reach a subordinate that is still applying the first: locks dropped,
// commit record not yet written, family not yet forgotten. The duplicate
// must not apply the outcome a second time; the first copy's
// acknowledgement answers both.
func TestDuplicateCommitRacingTheFirstIsAppliedOnce(t *testing.T) {
	for _, p := range []wire.Protocol{wire.TwoPhase, wire.Paxos} {
		t.Run(p.String(), func(t *testing.T) {
			v := ackVariant{p: p}
			h, got := ackSubject(t)
			var txn tid.TID
			part := &slowPart{fakePart: fakePart{name: "slow", vote: wire.VoteYes}}
			part.during = func() {
				h.sites[2].m.Deliver(v.outcomeFrom3(txn))
				h.k.Sleep(time.Millisecond)
			}
			h.run(t, func() {
				txn = tid.Top(tid.MakeFamily(3, 1))
				s := h.sites[2]
				if err := s.m.Join(txn, nil, part); err != nil {
					t.Fatal(err)
				}
				s.m.Deliver(requestFrom3(p, txn, []tid.SiteID{3}, wire.VoteYes))
				h.k.Sleep(10 * time.Millisecond)
				before := len(*got)
				s.m.Deliver(v.outcomeFrom3(txn))
				h.k.Sleep(3 * ackHold)
				if part.commits != 1 {
					t.Errorf("the outcome was applied %d times, want 1", part.commits)
				}
				if n := countRecords(t, s.log, wal.RecCommit); n != 1 {
					t.Errorf("commit records = %d, want 1", n)
				}
				if acks := acksIn((*got)[before:]); !slices.Equal(acks, []tid.TID{txn}) {
					t.Errorf("acknowledged %v, want %v once", acks, txn)
				}
			})
		})
	}
}
