package wire

import (
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"camelot/internal/tid"
)

// maxLegalMsg builds a message whose encoding is exactly MaxDatagram
// bytes: the fixed header padded out with votes (5 bytes each) until
// the rest divides by four, then piggybacked acks (16 bytes each) and
// participant sites (4 bytes each).
func maxLegalMsg() *Msg {
	m := &Msg{Kind: KCommitAck, TID: tid.Top(tid.MakeFamily(1, 1)), From: 1, To: 2}
	pad := MaxDatagram - EncodedSize(m)
	for ; pad%4 != 0; pad -= 5 {
		m.Votes = append(m.Votes, SiteVote{Site: tid.SiteID(len(m.Votes) + 1), Vote: VoteYes})
	}
	for ; pad >= ackSize; pad -= ackSize {
		m.AckTIDs = append(m.AckTIDs, tid.Top(tid.MakeFamily(2, uint32(len(m.AckTIDs)+1))))
	}
	for ; pad > 0; pad -= 4 {
		m.Sites = append(m.Sites, tid.SiteID(len(m.Sites)+1))
	}
	return m
}

// TestMarshalDatagramPinsLargestLegalMessage pins the size limit: a
// message encoding to exactly MaxDatagram marshals and round-trips,
// and one slice element more is refused with ErrOversize rather than
// sent to be truncated in flight.
func TestMarshalDatagramPinsLargestLegalMessage(t *testing.T) {
	m := maxLegalMsg()
	if got := len(Marshal(m)); got != MaxDatagram {
		t.Fatalf("constructed message is %d bytes, want exactly %d", got, MaxDatagram)
	}
	if AckRoom(m) != 0 {
		t.Fatalf("AckRoom of the largest legal message = %d, want 0", AckRoom(m))
	}
	buf, err := AppendDatagram(nil, m)
	if err != nil {
		t.Fatalf("AppendDatagram at limit: %v", err)
	}
	got, err := Unmarshal(buf)
	if err != nil {
		t.Fatalf("Unmarshal at limit: %v", err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatal("largest legal message did not round-trip")
	}

	m.Sites = append(m.Sites, 99) // 4 bytes over
	if _, err := AppendDatagram(nil, m); !errors.Is(err, ErrOversize) {
		t.Fatalf("AppendDatagram over limit = %v, want ErrOversize", err)
	}
}

// TestPatchToMatchesMarshal proves the fan-out path's re-addressing
// shortcut: patching To in a marshaled buffer yields byte-identical
// output to marshaling with that To in the first place.
func TestPatchToMatchesMarshal(t *testing.T) {
	m := sampleMsg()
	for _, to := range []tid.SiteID{0, 1, 7, 1 << 20} {
		patched := Marshal(m)
		PatchTo(patched, to)

		direct := *m
		direct.To = to
		if want := Marshal(&direct); !reflect.DeepEqual(patched, want) {
			t.Fatalf("PatchTo(%v) diverges from direct marshal", to)
		}
		got, err := Unmarshal(patched)
		if err != nil {
			t.Fatalf("Unmarshal patched: %v", err)
		}
		if got.To != to {
			t.Fatalf("patched To = %v, want %v", got.To, to)
		}
	}
}

// largestAt builds, for kind k, the largest message a transaction of n
// participants makes the commit protocols send: every list the kind
// carries is as long as n allows, every participant an acceptor (Paxos
// Commit's acceptor set is at most every site). A pure ack datagram is
// the fullest one the ack path sends: AckRoom acks.
func largestAt(k Kind, n int) *Msg {
	m := &Msg{Kind: k, TID: tid.Top(tid.MakeFamily(1, 1)), From: 1, To: 2}
	var sites []tid.SiteID
	var votes []SiteVote
	var accepted []PaxosAccepted
	for i := 1; i <= n; i++ {
		sites = append(sites, tid.SiteID(i))
		votes = append(votes, SiteVote{Site: tid.SiteID(i), Vote: VoteYes})
		accepted = append(accepted, PaxosAccepted{Site: tid.SiteID(i), Ballot: 1, Vote: VoteYes})
	}
	switch k {
	case KCommitAck:
		for i := AckRoom(m); i > 0; i-- {
			m.AckTIDs = append(m.AckTIDs, tid.Top(tid.MakeFamily(2, uint32(i))))
		}
	case KNBPrepare:
		m.Sites = sites
	case KNBReplicate, KNBStatusResp:
		m.Sites, m.Votes = sites, votes
	case KPaxosPrepare:
		m.Sites, m.Acceptors, m.Votes = sites, sites, votes[:1]
	case KPaxos2a:
		m.Sites, m.Acceptors, m.Votes = sites, sites, votes
	case KPaxos2b:
		m.Votes = votes
	case KPaxos1a:
		m.Sites, m.Acceptors = sites, sites
	case KPaxos1b:
		m.Accepted = accepted
	}
	return m
}

// TestLargestMessageOfEveryKindFits pins, for every kind, the largest
// message a 32-participant transaction produces: each fits one
// datagram, and each but the full ack batch leaves room for
// piggybacked acks. 32 participants is the stated ceiling; the first
// message to outgrow MaxDatagram needs 108, and AppendDatagram refuses
// it loudly.
func TestLargestMessageOfEveryKindFits(t *testing.T) {
	want := map[Kind]int{
		KPrepare: 75, KVote: 75, KCommit: 75, KAbort: 75, KCommitAck: 1467,
		KNBPrepare: 203, KNBVote: 75, KNBReplicate: 363, KNBReplicateAck: 75,
		KNBOutcome: 75, KNBStatusReq: 75, KNBStatusResp: 363,
		KNBAbortIntent: 75, KNBAbortIntentAck: 75, KInquire: 75,
		KChildCommit: 75, KChildAbort: 75,
		KPaxosPrepare: 336, KPaxosVote: 75, KPaxos2a: 491, KPaxos2b: 235,
		KPaxos1a: 331, KPaxos1b: 491,
	}
	for _, k := range Kinds() {
		m := largestAt(k, 32)
		size, ok := want[k]
		if !ok {
			t.Errorf("%v: no pinned size; add the kind to largestAt and this table", k)
			continue
		}
		if got := EncodedSize(m); got != size || got > MaxDatagram {
			t.Errorf("%v at 32 participants encodes to %d bytes, want %d (limit %d)", k, got, size, MaxDatagram)
		}
		if _, err := AppendDatagram(nil, m); err != nil {
			t.Errorf("%v at 32 participants: %v", k, err)
		}
		if k != KCommitAck && AckRoom(m) < 1 {
			t.Errorf("%v at 32 participants leaves no room for an ack", k)
		}
	}

	first := 0
	for n := 33; first == 0; n++ {
		for _, k := range Kinds() {
			if EncodedSize(largestAt(k, n)) > MaxDatagram {
				first = n
				if _, err := AppendDatagram(nil, largestAt(k, n)); !errors.Is(err, ErrOversize) {
					t.Errorf("%v at %d participants: AppendDatagram = %v, want ErrOversize", k, n, err)
				}
			}
		}
	}
	if first != 108 {
		t.Errorf("the first oversize message needs %d participants, want 108", first)
	}
}

// TestHostileLengthPrefixAllocatesNothing: a list whose length prefix
// claims more elements than the bytes left could hold is refused
// before anything is allocated for it. A 75-byte datagram claiming
// 65,535 Paxos accepted values and a 63-byte one claiming 65,535 ack
// TIDs each return ErrShort having allocated under 1 KiB.
func TestHostileLengthPrefixAllocatesNothing(t *testing.T) {
	accepted := Marshal(&Msg{Kind: KPaxos1b, TID: tid.Top(tid.MakeFamily(1, 1))})
	binary.BigEndian.PutUint16(accepted[len(accepted)-2:], 0xFFFF)
	acks := Marshal(&Msg{Kind: KCommitAck})[:63]
	binary.BigEndian.PutUint16(acks[61:], 0xFFFF)
	for _, c := range []struct {
		name string
		data []byte
	}{{"accepted", accepted}, {"acks", acks}} {
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := Unmarshal(c.data); !errors.Is(err, ErrShort) {
				t.Fatalf("%s: %d-byte datagram decoded with %v, want ErrShort", c.name, len(c.data), err)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 1<<10 {
			t.Errorf("%s: %d-byte datagram allocated %d bytes per decode, want under 1 KiB", c.name, len(c.data), per)
		}
	}
}
