//go:build linux && (amd64 || arm64)

package transport

import (
	"fmt"
	"reflect"
	"testing"

	"camelot/internal/tid"
	"camelot/internal/wire"
)

// fanThree sends count fan-outs from a fresh coordinator to three
// fresh receivers and checks every receiver saw every message with
// its own site id patched into To. Shared by the batched-path and
// portable-fallback tests so both paths are held to the same
// contract.
func fanThree(t *testing.T, count int) {
	t.Helper()
	coord := newTestPeer(t, 1)
	subs := make(map[tid.SiteID]*collector)
	var tos []tid.SiteID
	for id := tid.SiteID(2); id <= 4; id++ {
		p := newTestPeer(t, id)
		connect(t, coord, p, 1, id)
		c := &collector{}
		p.SetHandler(c.handle)
		subs[id] = c
		tos = append(tos, id)
	}
	for i := 0; i < count; i++ {
		msg := &wire.Msg{Kind: wire.KNBReplicate, TID: tid.Top(tid.MakeFamily(1, uint32(i+1))),
			Sites: tos, CommitQuorum: 2, AbortQuorum: 2}
		coord.SendAll(1, tos, msg)
	}
	for id, c := range subs {
		waitFor(t, fmt.Sprintf("site %d batch fan-out", id), func() bool { return c.len() == count })
		for _, m := range c.all() {
			if m.To != id || m.From != 1 {
				t.Fatalf("site %d got From=%v To=%v, want From=1 To=%d", id, m.From, m.To, id)
			}
		}
	}
	if sent, _, dropped := coord.Stats(); sent != count*len(tos) || dropped != 0 {
		t.Fatalf("sent %d / dropped %d, want %d / 0", sent, dropped, count*len(tos))
	}
}

// TestBatchFanout exercises the sendmmsg fast path (and recvmmsg on
// the receiving sockets) with enough fan-outs to recycle the pooled
// scratch repeatedly.
func TestBatchFanout(t *testing.T) {
	if mmsgDisabled.Load() {
		t.Skip("kernel refused sendmmsg/recvmmsg")
	}
	fanThree(t, 50)
}

// TestPortableFallback forces the portable one-syscall-per-datagram
// paths (the non-linux build and exotic-kernel behavior) and holds
// them to the identical contract.
func TestPortableFallback(t *testing.T) {
	was := mmsgDisabled.Load()
	mmsgDisabled.Store(true)
	defer mmsgDisabled.Store(was)
	fanThree(t, 50)
}

// TestSendBatchDeclinesNonBatchable: a fan-out including a
// destination with no registered address must decline the batch path
// so the portable loop does its per-destination drop accounting.
func TestSendBatchDeclinesNonBatchable(t *testing.T) {
	a, b := newTestPeer(t, 1), newTestPeer(t, 2)
	connect(t, a, b, 1, 2)
	var got collector
	b.SetHandler(got.handle)

	// Site 9 was never registered: the batch path must refuse the
	// whole fan-out, the portable loop then sends to 2 and counts the
	// drop for 9.
	a.SendAll(1, []tid.SiteID{2, 9}, &wire.Msg{Kind: wire.KPrepare, TID: tid.Top(tid.MakeFamily(1, 1))})
	waitFor(t, "deliverable half of fan-out", func() bool { return got.len() == 1 })
	if sent, _, dropped := a.Stats(); sent != 1 || dropped != 1 {
		t.Fatalf("sent %d / dropped %d, want 1 / 1", sent, dropped)
	}
}

// sizedMsg builds a commit-ack for family fam whose encoding is
// exactly n bytes: the fixed header padded out with votes (5 bytes
// each) until the rest divides by four, then piggybacked acks (16) of
// fam's own, and participant sites (4).
func sizedMsg(t *testing.T, n int, fam uint32) *wire.Msg {
	t.Helper()
	m := &wire.Msg{Kind: wire.KCommitAck, TID: tid.Top(tid.MakeFamily(1, fam)), From: 1, To: 2}
	pad := n - wire.EncodedSize(m)
	for ; pad%4 != 0; pad -= 5 {
		m.Votes = append(m.Votes, wire.SiteVote{Site: tid.SiteID(len(m.Votes) + 1), Vote: wire.VoteYes})
	}
	for ; pad >= 16; pad -= 16 {
		m.AckTIDs = append(m.AckTIDs, tid.Top(tid.MakeFamily(tid.SiteID(fam), uint32(len(m.AckTIDs)+1))))
	}
	for ; pad > 0; pad -= 4 {
		m.Sites = append(m.Sites, tid.SiteID(len(m.Sites)+1))
	}
	if got := wire.EncodedSize(m); got != n {
		t.Fatalf("built a %d-byte message, want %d", got, n)
	}
	return m
}

// TestSlotBoundarySizes sends datagrams on either side of the
// receive slot's private room and the largest legal one, one at a
// time, through both read paths: each arrives whole and field-exact,
// and nothing is dropped.
func TestSlotBoundarySizes(t *testing.T) {
	sizes := []int{slotSize - 1, slotSize, slotSize + 1, 3 * slotSize, wire.MaxDatagram}
	for _, portable := range []bool{false, true} {
		t.Run(fmt.Sprintf("portable=%v", portable), func(t *testing.T) {
			was := mmsgDisabled.Load()
			if !portable && was {
				t.Skip("kernel refused sendmmsg/recvmmsg")
			}
			mmsgDisabled.Store(portable)
			defer mmsgDisabled.Store(was)
			a, b := newTestPeer(t, 1), newTestPeer(t, 2)
			connect(t, a, b, 1, 2)
			var got collector
			b.SetHandler(got.handle)
			for i, n := range sizes {
				want := sizedMsg(t, n, uint32(i+1))
				a.Send(1, 2, want)
				waitFor(t, fmt.Sprintf("the %d-byte datagram", n), func() bool { return got.len() == i+1 })
				if m := got.all()[i]; !reflect.DeepEqual(m, want) {
					t.Fatalf("%d-byte datagram arrived changed", n)
				}
			}
			if _, recv, dropped := b.Stats(); recv != len(sizes) || dropped != 0 {
				t.Fatalf("received %d / dropped %d, want %d / 0", recv, dropped, len(sizes))
			}
		})
	}
}

// TestSpillKeepsLastOverflow plays the kernel's side of one recvmmsg
// call that brings four datagrams — small, overflowing, small,
// overflowing — into the shared-spill slots. The small ones and the
// last overflowing one are delivered whole; the first overflowing one
// lost its tail to the second, so it is a counted, logged drop. The two
// overflowing ones are the same size and differ only in their acks, so
// the stale head over the later tail would still decode: a corrupt
// delivery, not a decode failure, is what the drop prevents.
func TestSpillKeepsLastOverflow(t *testing.T) {
	p := newTestPeer(t, 2)
	var got collector
	p.SetHandler(got.handle)
	var logged int
	p.SetLogf(func(string, ...any) { logged++ })

	batch := []*wire.Msg{
		sizedMsg(t, 200, 1),
		sizedMsg(t, 3*slotSize, 2),
		sizedMsg(t, 300, 3),
		sizedMsg(t, 3*slotSize, 4),
	}
	s := newRecvSlots()
	for i, m := range batch {
		b := wire.Marshal(m)
		copy(s.head(i), b)
		if len(b) > slotSize {
			copy(s.spill[slotSize:], b[slotSize:])
		}
		s.hdrs[i].n = uint32(len(b))
	}
	s.deliver(p, len(batch))

	if want := []*wire.Msg{batch[0], batch[2], batch[3]}; !reflect.DeepEqual(got.all(), want) {
		t.Fatalf("delivered %d datagrams, want families 1, 3, 4 whole", got.len())
	}
	if _, recv, dropped := p.Stats(); recv != 3 || dropped != 1 {
		t.Fatalf("received %d / dropped %d, want 3 / 1", recv, dropped)
	}
	if logged != 1 {
		t.Fatalf("logged %d drops, want 1", logged)
	}
}
