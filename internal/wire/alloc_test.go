package wire

import (
	"testing"

	"camelot/internal/tid"
)

// bigMsg builds a message with every variable-length section populated
// at ack-flush scale, so the allocation pins below exercise the worst
// case the hot path sees, not a toy header.
func bigMsg() *Msg {
	m := &Msg{
		Kind:         KPaxos1b,
		TID:          tid.TID{Family: 7, Seq: 9},
		Parent:       tid.TID{Family: 7, Seq: 3},
		From:         2,
		To:           5,
		Seq:          991,
		Flags:        FlagImmediateAck,
		CommitQuorum: 2,
		AbortQuorum:  2,
		Vote:         VoteYes,
		Outcome:      OutcomeCommit,
		State:        NBReplicated,
		Ballot:       4,
	}
	for i := 0; i < 16; i++ {
		m.Sites = append(m.Sites, tid.SiteID(i))
		m.Acceptors = append(m.Acceptors, tid.SiteID(i))
		m.Votes = append(m.Votes, SiteVote{Site: tid.SiteID(i), Vote: VoteYes})
		m.Accepted = append(m.Accepted, PaxosAccepted{Site: tid.SiteID(i), Ballot: uint64(i), Vote: VoteYes})
	}
	for i := 0; i < 64; i++ {
		m.AckTIDs = append(m.AckTIDs, tid.TID{Family: tid.FamilyID(i), Seq: tid.Seq(i)})
	}
	return m
}

// TestMarshalOneAlloc pins Marshal at exactly one allocation — the
// exact-size buffer — for a large ack-flush message. The old fixed
// 64-byte initial capacity regrew the buffer five times on this
// message.
func TestMarshalOneAlloc(t *testing.T) {
	m := bigMsg()
	allocs := testing.AllocsPerRun(200, func() {
		_ = Marshal(m)
	})
	if allocs != 1 {
		t.Fatalf("Marshal of large msg: %v allocs/op, want exactly 1", allocs)
	}
}

// TestRoundTripZeroAlloc pins the datagram hot path —
// AppendMarshal into a reused buffer, UnmarshalInto into reused Msg
// scratch — at zero allocations per round trip once the buffers have
// reached working size.
func TestRoundTripZeroAlloc(t *testing.T) {
	m := bigMsg()
	buf := make([]byte, 0, EncodedSize(m))
	var scratch Msg
	// Warm the scratch slices to working size.
	buf = AppendMarshal(buf[:0], m)
	if err := UnmarshalInto(&scratch, buf); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		buf = AppendMarshal(buf[:0], m)
		if err := UnmarshalInto(&scratch, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("marshal+unmarshal round trip: %v allocs/op, want 0", allocs)
	}
}

// TestEncodedSizeExact pins EncodedSize against the bytes Marshal
// actually produces, for the empty message, the big message, and each
// section populated alone.
func TestEncodedSizeExact(t *testing.T) {
	msgs := []*Msg{
		{Kind: KPrepare},
		bigMsg(),
		{Kind: KVote, Sites: []tid.SiteID{1, 2, 3}},
		{Kind: KCommitAck, AckTIDs: []tid.TID{{Family: 1, Seq: 1}}},
		{Kind: KPaxos1b, Accepted: []PaxosAccepted{{Site: 1, Ballot: 2, Vote: VoteYes}}},
	}
	for _, m := range msgs {
		if got, want := len(Marshal(m)), EncodedSize(m); got != want {
			t.Errorf("%s: Marshal produced %d bytes, EncodedSize says %d", m.Kind, got, want)
		}
	}
}

// TestUnmarshalIntoReuse checks that a recycled Msg decodes to the
// same value a fresh Unmarshal produces, even when the previous
// occupant had longer slices.
func TestUnmarshalIntoReuse(t *testing.T) {
	big := Marshal(bigMsg())
	small := Marshal(&Msg{Kind: KVote, TID: tid.TID{Family: 1, Seq: 2}, Vote: VoteNo})

	var scratch Msg
	if err := UnmarshalInto(&scratch, big); err != nil {
		t.Fatal(err)
	}
	if err := UnmarshalInto(&scratch, small); err != nil {
		t.Fatal(err)
	}
	if scratch.Kind != KVote || scratch.Vote != VoteNo || len(scratch.AckTIDs) != 0 ||
		len(scratch.Sites) != 0 || len(scratch.Accepted) != 0 {
		t.Fatalf("stale fields survived reuse: %+v", scratch)
	}
}

// BenchmarkAppendMarshal pins the send-side hot path. Expect 0 B/op,
// 0 allocs/op.
func BenchmarkAppendMarshal(b *testing.B) {
	m := bigMsg()
	buf := make([]byte, 0, EncodedSize(m))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendMarshal(buf[:0], m)
	}
	_ = buf
}

// BenchmarkUnmarshalInto pins the receive-side hot path with Msg
// scratch the caller owns. Expect 0 B/op, 0 allocs/op.
func BenchmarkUnmarshalInto(b *testing.B) {
	data := Marshal(bigMsg())
	var scratch Msg
	if err := UnmarshalInto(&scratch, data); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := UnmarshalInto(&scratch, data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMarshal measures the one-allocation whole-message encode.
func BenchmarkMarshal(b *testing.B) {
	m := bigMsg()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Marshal(m)
	}
}
