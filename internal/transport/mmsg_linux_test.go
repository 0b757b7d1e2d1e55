//go:build linux && (amd64 || arm64)

package transport

import (
	"fmt"
	"net"
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

// rawSend writes b to p's socket as one datagram, bypassing the
// send-side size check.
func rawSend(t *testing.T, p *UDPPeer, b []byte) {
	t.Helper()
	src, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	addr, err := net.ResolveUDPAddr("udp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.WriteToUDP(b, addr); err != nil {
		t.Fatal(err)
	}
}

// TestSlotBoundarySizes sends datagrams on either side of the largest
// legal one, one at a time, through both read paths: the legal ones
// arrive whole and field-exact; one byte more, or the largest datagram
// IPv4 carries, fills the receive slot and is dropped and counted.
func TestSlotBoundarySizes(t *testing.T) {
	sizes := []struct {
		n     int
		legal bool
	}{
		{wire.MaxDatagram - 1, true},
		{wire.MaxDatagram + 1, false},
		{wire.MaxDatagram, true},
		{65507, false},
	}
	for _, portable := range []bool{false, true} {
		t.Run(fmt.Sprintf("portable=%v", portable), func(t *testing.T) {
			was := mmsgDisabled.Load()
			if !portable && was {
				t.Skip("kernel refused sendmmsg/recvmmsg")
			}
			mmsgDisabled.Store(portable)
			defer mmsgDisabled.Store(was)
			p := newTestPeer(t, 2)
			var got collector
			p.SetHandler(got.handle)
			var recv, dropped int
			for i, sz := range sizes {
				want := sizedMsg(t, sz.n, uint32(i+1))
				rawSend(t, p, wire.Marshal(want))
				if sz.legal {
					recv++
				} else {
					dropped++
				}
				waitFor(t, fmt.Sprintf("the %d-byte datagram", sz.n), func() bool {
					_, r, d := p.Stats()
					return r == recv && d == dropped
				})
				if ms := got.all(); sz.legal && !reflect.DeepEqual(ms[len(ms)-1], want) {
					t.Fatalf("%d-byte datagram arrived changed", sz.n)
				}
			}
			if got.len() != recv {
				t.Fatalf("handled %d datagrams, want %d", got.len(), recv)
			}
		})
	}
}

// TestOversizeInBatchDropsAlone plays the kernel's side of one
// recvmmsg call that brings four datagrams — small, one that filled
// its slot, small, and one of exactly wire.MaxDatagram bytes. The
// oversize one is a counted, logged drop; the legal ones behind it
// arrive whole.
func TestOversizeInBatchDropsAlone(t *testing.T) {
	var logged int
	p := newLoggingPeer(t, 2, func(string, ...any) { logged++ })
	var got collector
	p.SetHandler(got.handle)

	batch := []*wire.Msg{
		sizedMsg(t, 200, 1),
		sizedMsg(t, 3*wire.MaxDatagram, 2),
		sizedMsg(t, 300, 3),
		sizedMsg(t, wire.MaxDatagram, 4),
	}
	s := newRecvSlots()
	for i, m := range batch {
		s.hdrs[i].n = uint32(copy(s.slot(i), wire.Marshal(m)))
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
