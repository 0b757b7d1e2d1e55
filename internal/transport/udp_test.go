package transport

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"camelot/internal/tid"
	"camelot/internal/wire"
)

// newTestPeer binds a loopback peer and registers cleanup.
func newTestPeer(t *testing.T, id tid.SiteID) *UDPPeer {
	t.Helper()
	return newLoggingPeer(t, id, nil)
}

// newLoggingPeer is newTestPeer reporting its unmaskable losses to logf.
func newLoggingPeer(t *testing.T, id tid.SiteID, logf func(string, ...any)) *UDPPeer {
	t.Helper()
	p, err := ListenUDP(id, "127.0.0.1:0", nil, logf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// connect registers both peers' addresses with each other.
func connect(t *testing.T, a, b *UDPPeer, aid, bid tid.SiteID) {
	t.Helper()
	if err := a.AddPeer(bid, b.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer(aid, a.Addr()); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// collector is a concurrency-safe inbound handler.
type collector struct {
	mu   sync.Mutex
	msgs []*wire.Msg
}

func (c *collector) handle(d Datagram) {
	m, ok := d.Payload.(*wire.Msg)
	if !ok {
		return
	}
	c.mu.Lock()
	c.msgs = append(c.msgs, m)
	c.mu.Unlock()
}

func (c *collector) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

func (c *collector) all() []*wire.Msg {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*wire.Msg(nil), c.msgs...)
}

// TestBacklogDeliversEarlyDatagrams is the regression test for the
// silent-loss bug where datagrams arriving before SetHandler were
// counted as received but delivered to no one. A real cluster races
// its peers' startups constantly; early arrivals must be parked and
// delivered once the handler exists.
func TestBacklogDeliversEarlyDatagrams(t *testing.T) {
	a, b := newTestPeer(t, 1), newTestPeer(t, 2)
	connect(t, a, b, 1, 2)

	const n = 10
	for i := 0; i < n; i++ {
		a.Send(1, 2, &wire.Msg{Kind: wire.KPrepare, TID: tid.Top(tid.MakeFamily(1, uint32(i+1)))})
	}
	// All n must arrive and be parked — not discarded — while no
	// handler is installed.
	waitFor(t, "backlog to fill", func() bool { _, r, _ := b.Stats(); return r == n })
	var got collector
	b.SetHandler(got.handle)
	waitFor(t, "backlog delivery", func() bool { return got.len() == n })

	if _, _, dropped := b.Stats(); dropped != 0 {
		t.Fatalf("dropped = %d, want 0", dropped)
	}
	for i, m := range got.all() {
		if want := tid.Top(tid.MakeFamily(1, uint32(i+1))); m.TID != want {
			t.Fatalf("msg %d = %s, want %s (backlog must preserve arrival order)", i, m.TID, want)
		}
	}
}

// TestBacklogOverflowCountsDrops: handler-less arrivals beyond the
// backlog bound are loss and must be counted as such (the old code
// discarded them while counting them as received).
func TestBacklogOverflowCountsDrops(t *testing.T) {
	a, b := newTestPeer(t, 1), newTestPeer(t, 2)
	connect(t, a, b, 1, 2)

	const extra = 7
	for i := 0; i < backlogCap+extra; i++ {
		a.Send(1, 2, &wire.Msg{Kind: wire.KPrepare, TID: tid.Top(tid.MakeFamily(1, uint32(i+1)))})
	}
	waitFor(t, "overflow drops", func() bool {
		_, r, d := b.Stats()
		return r+d == backlogCap+extra
	})
	if _, r, d := b.Stats(); r != backlogCap || d != extra {
		t.Fatalf("received %d / dropped %d, want %d / %d", r, d, backlogCap, extra)
	}
}

// TestOversizeSendIsLoud: a message whose encoding exceeds
// wire.MaxDatagram must be refused at send time with a recorded
// error, not truncated in flight and lost as a mystery corrupt
// datagram the retry machinery can never mask.
func TestOversizeSendIsLoud(t *testing.T) {
	var logged int
	a, b := newLoggingPeer(t, 1, func(string, ...any) { logged++ }), newTestPeer(t, 2)
	connect(t, a, b, 1, 2)
	var got collector
	b.SetHandler(got.handle)

	huge := &wire.Msg{Kind: wire.KCommitAck, TID: tid.Top(tid.MakeFamily(1, 1))}
	for i := 0; i < wire.MaxDatagram/16+1; i++ {
		huge.AckTIDs = append(huge.AckTIDs, tid.Top(tid.MakeFamily(2, uint32(i+1))))
	}
	a.Send(1, 2, huge)

	if sent, _, dropped := a.Stats(); sent != 0 || dropped != 1 {
		t.Fatalf("sent %d / dropped %d, want 0 / 1", sent, dropped)
	}
	if a.Oversize() != 1 {
		t.Fatalf("Oversize() = %d, want 1", a.Oversize())
	}
	if err := a.Err(); !errors.Is(err, wire.ErrOversize) {
		t.Fatalf("Err() = %v, want wire.ErrOversize", err)
	}
	if logged == 0 {
		t.Fatal("oversize refusal was not logged")
	}

	// A legal message still flows afterwards.
	a.Send(1, 2, &wire.Msg{Kind: wire.KPrepare, TID: tid.Top(tid.MakeFamily(1, 2))})
	waitFor(t, "legal message after refusal", func() bool { return got.len() == 1 })
}

// TestEveryKindRoundTripsOverUDP pushes one representative message of
// every wire kind through the full real-network path — marshal, UDP
// loopback, unmarshal, handler — and checks field-exact delivery.
func TestEveryKindRoundTripsOverUDP(t *testing.T) {
	a, b := newTestPeer(t, 1), newTestPeer(t, 2)
	connect(t, a, b, 1, 2)
	var got collector
	b.SetHandler(got.handle)

	var want []*wire.Msg
	for _, k := range wire.Kinds() {
		m := &wire.Msg{
			Kind:         k,
			TID:          tid.Top(tid.MakeFamily(1, uint32(k))),
			Parent:       tid.Top(tid.MakeFamily(1, 7)),
			Seq:          uint64(100 + k),
			Flags:        wire.FlagImmediateAck,
			Sites:        []tid.SiteID{1, 2, 3},
			CommitQuorum: 2,
			AbortQuorum:  2,
			Vote:         wire.VoteYes,
			Outcome:      wire.OutcomeCommit,
			State:        wire.NBReplicated,
			Votes:        []wire.SiteVote{{Site: 2, Vote: wire.VoteYes}},
			AckTIDs:      []tid.TID{tid.Top(tid.MakeFamily(2, uint32(k)))},
		}
		a.Send(1, 2, m)
		expect := *m
		expect.From, expect.To = 1, 2
		want = append(want, &expect)
	}
	waitFor(t, "all kinds to arrive", func() bool { return got.len() == len(want) })

	byKind := make(map[wire.Kind]*wire.Msg)
	for _, m := range got.all() {
		byKind[m.Kind] = m
	}
	for _, w := range want {
		g := byKind[w.Kind]
		if g == nil {
			t.Fatalf("kind %v never arrived", w.Kind)
		}
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("kind %v mismatch:\nsent %+v\n got %+v", w.Kind, w, g)
		}
	}
}

// TestFanoutReaddressesPerDestination: Multicast and SendAll marshal
// once and patch the destination per datagram; every receiver must
// still see its own site id in To.
func TestFanoutReaddressesPerDestination(t *testing.T) {
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

	msg := &wire.Msg{Kind: wire.KPrepare, TID: tid.Top(tid.MakeFamily(1, 1)), Sites: tos}
	coord.Multicast(1, tos, msg)
	coord.SendAll(1, tos, msg)

	for id, c := range subs {
		waitFor(t, fmt.Sprintf("site %d fan-out", id), func() bool { return c.len() == 2 })
		for _, m := range c.all() {
			if m.To != id || m.From != 1 {
				t.Fatalf("site %d got From=%v To=%v, want From=1 To=%d", id, m.From, m.To, id)
			}
		}
	}
	if sent, _, _ := coord.Stats(); sent != 2*len(tos) {
		t.Fatalf("sent = %d, want %d", sent, 2*len(tos))
	}
}

// TestReceiveMemoryPerPeer pins what a peer's reader holds live: its
// receive slots are sized to the traffic (slotSize each, plus one
// full-size spill), not one largest-legal-datagram buffer per
// recvmmsg slot, which cost 512 KiB a peer.
func TestReceiveMemoryPerPeer(t *testing.T) {
	const peers, limit = 8, 128 << 10
	src, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	ping := wire.Marshal(&wire.Msg{Kind: wire.KPrepare, TID: tid.Top(tid.MakeFamily(1, 1)), From: 1})

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ps := make([]*UDPPeer, peers)
	for i := range ps {
		ps[i] = newTestPeer(t, tid.SiteID(i+2))
		ps[i].SetHandler(func(Datagram) {})
		addr, err := net.ResolveUDPAddr("udp", ps[i].Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := src.WriteToUDP(ping, addr); err != nil {
			t.Fatal(err)
		}
	}
	// A peer that has received a datagram has allocated its buffers.
	for i, p := range ps {
		waitFor(t, fmt.Sprintf("peer %d's first datagram", i), func() bool { _, r, _ := p.Stats(); return r == 1 })
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(ps)
	if per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / peers; per > limit {
		t.Fatalf("%d KiB live per peer, want at most %d KiB", per>>10, limit>>10)
	}
}

// BenchmarkFanout measures the coordinator's hottest send path: one
// prepare fanned out to three subordinates (marshal once + patch,
// versus the old marshal-per-destination).
func BenchmarkFanout(b *testing.B) {
	coord, err := NewUDPPeer(1, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer coord.Close()
	var tos []tid.SiteID
	for id := tid.SiteID(2); id <= 4; id++ {
		p, err := NewUDPPeer(id, "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer p.Close()
		p.SetHandler(func(Datagram) {})
		if err := coord.AddPeer(id, p.Addr()); err != nil {
			b.Fatal(err)
		}
		tos = append(tos, id)
	}
	msg := &wire.Msg{
		Kind: wire.KNBReplicate, TID: tid.Top(tid.MakeFamily(1, 1)),
		Sites: tos, CommitQuorum: 2, AbortQuorum: 2,
		Votes: []wire.SiteVote{{Site: 2, Vote: wire.VoteYes}, {Site: 3, Vote: wire.VoteYes}, {Site: 4, Vote: wire.VoteYes}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coord.Multicast(1, tos, msg)
	}
}
