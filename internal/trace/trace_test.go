package trace

import (
	"strings"
	"testing"
	"time"

	"camelot/internal/sim"
	"camelot/internal/tid"
	"camelot/internal/wire"
)

// fakeTM is a TxPayload: a transaction-manager datagram that counts
// into both the site and family budgets.
type fakeTM struct{ t tid.TID }

func (p fakeTM) TraceKind() string { return "FAKE-TM" }
func (p fakeTM) TraceTID() tid.TID { return p.t }

// fakeRPC is a bare Payload: communication-manager traffic, counted
// per site only.
type fakeRPC struct{}

func (fakeRPC) TraceKind() string { return "FAKE-RPC" }

func testTID() tid.TID { return tid.Top(tid.MakeFamily(1, 1)) }

// TestCountersOnlyCollector: a collector without a timeline counts
// every primitive into the site's ledger exactly as a timeline one
// does, and records no event, no family counter and no phase.
func TestCountersOnlyCollector(t *testing.T) {
	c := NewCounters()
	id := testTID()
	c.LogAppend(1, id, "UPDATE", 10)
	c.LogForce(1, id, "COMMIT")
	c.DeviceWrite(1, 2, 100)
	c.LogFlush(1)
	c.MsgSend(1, 2, fakeTM{id})
	c.MsgRecv(2, 1, fakeTM{id})
	c.MsgDrop(1, 2, nil)
	c.PhaseBegin(1, id, "prepare")
	c.PhaseEnd(1, id, "prepare")
	c.LockDrop(1, id)
	c.Count(1, IPCs, 1)
	c.Count(1, AcksPiggybacked, 3)
	c.Count(1, FamilyLockWaits, 1)
	c.Crash(1)
	c.Recover(1)
	c.ThreadSwitch("w")
	c.TimerFire("t")
	want1 := SiteCounters{LogAppends: 1, LogForces: 1, DeviceWrites: 1, BytesWritten: 100,
		MsgsSent: 1, MsgsDropped: 1, IPCs: 1, AcksPiggybacked: 3, FamilyLockWaits: 1}
	if got := c.Site(1); got != want1 {
		t.Errorf("site1 counters = %+v, want %+v", got, want1)
	}
	if got := c.Site(2); got != (SiteCounters{MsgsRecv: 1}) {
		t.Errorf("site2 counters = %+v, want one receipt", got)
	}
	if ev := c.Events(); len(ev) != 0 {
		t.Errorf("counters-only collector has events: %v", ev)
	}
	if got := c.Family(id, 1); got != (FamilyCounters{}) {
		t.Errorf("counters-only collector family counters: %+v", got)
	}
	if s := c.PhaseLatency("prepare"); s.N() != 0 {
		t.Errorf("counters-only collector phase sample n=%d", s.N())
	}
	c.Reset()
	if got := c.Site(1); got != (SiteCounters{}) {
		t.Errorf("Reset left site1 counters %+v", got)
	}
}

// TestCountingAllocatesNothing pins the cost of a counter left on in a
// real node: on a counters-only collector the per-record, per-flush
// and per-datagram hooks allocate nothing — no event, and no
// formatted Info string nobody will read.
func TestCountingAllocatesNothing(t *testing.T) {
	c := NewCounters()
	id := testTID()
	tm := &fakeTM{id}
	for _, h := range []struct {
		name string
		hook func()
	}{
		{"LogAppend", func() { c.LogAppend(1, id, "UPDATE", 10) }},
		{"LogForce", func() { c.LogForce(1, id, "COMMIT") }},
		{"DeviceWrite", func() { c.DeviceWrite(1, 2, 100) }},
		{"MsgSend", func() { c.MsgSend(1, 2, tm) }},
		{"MsgRecv", func() { c.MsgRecv(2, 1, tm) }},
		{"MsgDrop", func() { c.MsgDrop(1, 2, tm) }},
		{"Retry", func() { c.Retry(1, id, "prepare", 2) }},
	} {
		if n := testing.AllocsPerRun(100, h.hook); n != 0 {
			t.Errorf("%s allocates %.1f times per call on a counters-only collector", h.name, n)
		}
	}
}

func TestCountersAndEvents(t *testing.T) {
	k := sim.New(1)
	c := New(k)
	id := testTID()

	c.LogAppend(1, id, "UPDATE", 10)
	c.LogForce(1, id, "COMMIT")
	c.DeviceWrite(1, 2, 100)
	c.MsgSend(1, 2, fakeTM{id})
	c.MsgRecv(2, 1, fakeTM{id})
	c.MsgDrop(1, 2, fakeTM{id})
	c.MsgSend(1, 2, fakeRPC{})
	c.Count(1, IPCs, 1)

	s1 := c.Site(1)
	want1 := SiteCounters{LogAppends: 1, LogForces: 1, DeviceWrites: 1, BytesWritten: 100,
		MsgsSent: 1, MsgsDropped: 1, RPCs: 1, IPCs: 1}
	if s1 != want1 {
		t.Errorf("site1 counters = %+v, want %+v", s1, want1)
	}
	if s2 := c.Site(2); s2.MsgsRecv != 1 {
		t.Errorf("site2 recv = %d, want 1", s2.MsgsRecv)
	}

	// Family budget: the RPC send must NOT appear, the TM send must.
	f1 := c.Family(id, 1)
	wantF1 := FamilyCounters{LogAppends: 1, LogForces: 1, MsgsSent: 1}
	if f1 != wantF1 {
		t.Errorf("family counters at site1 = %+v, want %+v", f1, wantF1)
	}
	total := c.FamilyTotal(id)
	if total.MsgsSent != 1 || total.MsgsRecv != 1 || total.LogForces != 1 {
		t.Errorf("family total = %+v", total)
	}

	evs := c.Events()
	if len(evs) != 7 { // IPC records no timeline event
		t.Fatalf("got %d events, want 7", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
	}
	if line := evs[3].String(); !strings.Contains(line, "site1→site2") || !strings.Contains(line, "FAKE-TM") {
		t.Errorf("send event renders as %q", line)
	}
}

func TestPhaseLatency(t *testing.T) {
	k := sim.New(1)
	c := New(k)
	id := testTID()
	k.Go("test", func() {
		c.PhaseBegin(1, id, "prepare")
		k.Sleep(10 * time.Millisecond)
		c.PhaseEnd(1, id, "prepare")
		// An End with no Begin must be ignored, not panic or record.
		c.PhaseEnd(1, id, "notify")
		k.Stop()
	})
	k.RunUntil(time.Second)

	s := c.PhaseLatency("prepare")
	if s.N() != 1 || s.Mean() != 10 {
		t.Errorf("prepare latency n=%d mean=%v, want n=1 mean=10ms", s.N(), s.Mean())
	}
	if got := c.Phases(); len(got) != 1 || got[0] != "prepare" {
		t.Errorf("phases = %v, want [prepare]", got)
	}
	// The snapshot is a copy: mutating it must not affect the collector.
	s.Add(999)
	if c.PhaseLatency("prepare").N() != 1 {
		t.Error("PhaseLatency returned a live reference, not a snapshot")
	}
}

func TestReset(t *testing.T) {
	k := sim.New(1)
	c := New(k)
	id := testTID()
	c.LogForce(1, id, "COMMIT")
	c.PhaseBegin(1, id, "prepare")
	c.Reset()
	if len(c.Events()) != 0 || c.Site(1) != (SiteCounters{}) || c.Family(id, 1) != (FamilyCounters{}) {
		t.Error("Reset left state behind")
	}
	// The open phase must be gone too: this End should be a no-op.
	c.PhaseEnd(1, id, "prepare")
	if c.PhaseLatency("prepare").N() != 0 {
		t.Error("Reset did not clear open phases")
	}
	// Sequence numbers restart.
	c.LogFlush(1)
	if evs := c.Events(); len(evs) != 1 || evs[0].Seq != 1 {
		t.Errorf("after Reset, events = %v", evs)
	}
}

// TestViewsOverInterleavedFamilies pins what the per-family budget and
// phase-latency views answer when two families' primitives interleave
// on the timeline: each family sees only its own primitives, a pure
// ack batch is charged to its first ack, a drop counts toward no
// family, and phases are timed from their latest begin.
func TestViewsOverInterleavedFamilies(t *testing.T) {
	k := sim.New(1)
	c := New(k)
	a := tid.Top(tid.MakeFamily(1, 1))
	b := tid.Top(tid.MakeFamily(2, 1))
	aChild := tid.TID{Family: a.Family, Seq: tid.MakeSeq(1, 7)}
	k.Go("test", func() {
		c.PhaseBegin(1, a, "prepare")
		c.LogAppend(1, a, "UPDATE", 10)
		c.PhaseBegin(2, b, "prepare")
		c.LogAppend(2, b, "UPDATE", 10)
		c.LogAppend(1, aChild, "UPDATE", 10)
		c.MsgSend(1, 2, &wire.Msg{Kind: wire.KPrepare, TID: a})
		c.MsgSend(2, 1, &wire.Msg{Kind: wire.KPrepare, TID: b})
		c.MsgRecv(2, 1, &wire.Msg{Kind: wire.KPrepare, TID: a})
		c.MsgDrop(1, 2, &wire.Msg{Kind: wire.KPrepare, TID: b}) // b's prepare is lost
		c.MsgSend(1, 2, fakeRPC{})
		k.Sleep(5 * time.Millisecond)
		c.PhaseBegin(1, a, "prepare") // begun again: timed from here
		c.LogForce(2, a, "PREPARE")
		c.MsgSend(2, 1, &wire.Msg{Kind: wire.KVote, TID: a})
		k.Sleep(10 * time.Millisecond)
		c.PhaseEnd(1, a, "prepare")
		c.PhaseEnd(1, b, "notify") // never begun: no sample
		c.LogForce(1, b, "COMMIT")
		k.Sleep(20 * time.Millisecond)
		c.PhaseEnd(2, b, "prepare")
		c.PhaseBegin(2, b, "notify") // never ended: not a phase yet
		// A pure ack batch: no header TID, charged to its first ack.
		c.MsgSend(2, 1, &wire.Msg{Kind: wire.KCommitAck, AckTIDs: []tid.TID{b, a}})
		c.MsgRecv(1, 2, &wire.Msg{Kind: wire.KCommitAck, AckTIDs: []tid.TID{b, a}})
		k.Stop()
	})
	k.RunUntil(time.Second)

	for _, tc := range []struct {
		name string
		got  FamilyCounters
		want FamilyCounters
	}{
		{"a@site1", c.Family(a, 1), FamilyCounters{LogAppends: 2, MsgsSent: 1}},
		{"a@site2", c.Family(a, 2), FamilyCounters{LogForces: 1, MsgsSent: 1, MsgsRecv: 1}},
		{"a@site3", c.Family(a, 3), FamilyCounters{}},
		{"a total", c.FamilyTotal(a), FamilyCounters{LogAppends: 2, LogForces: 1, MsgsSent: 2, MsgsRecv: 1}},
		{"b@site1", c.Family(b, 1), FamilyCounters{LogForces: 1, MsgsRecv: 1}},
		{"b@site2", c.Family(b, 2), FamilyCounters{LogAppends: 1, MsgsSent: 2}},
		{"b total", c.FamilyTotal(b), FamilyCounters{LogAppends: 1, LogForces: 1, MsgsSent: 2, MsgsRecv: 1}},
		{"child is its family", c.Family(aChild, 1), FamilyCounters{LogAppends: 2, MsgsSent: 1}},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %+v, want %+v", tc.name, tc.got, tc.want)
		}
	}
	if got := c.Site(1).MsgsDropped; got != 1 {
		t.Errorf("site1 drops = %d, want the one lost prepare", got)
	}

	if got := c.Phases(); len(got) != 1 || got[0] != "prepare" {
		t.Errorf("phases = %v, want [prepare]", got)
	}
	s := c.PhaseLatency("prepare")
	if s.N() != 2 || s.Max() != 35 || s.Mean() != 22.5 {
		t.Errorf("prepare latency n=%d max=%v mean=%v, want two samples, 10ms and 35ms",
			s.N(), s.Max(), s.Mean())
	}
	if n := c.PhaseLatency("notify").N(); n != 0 {
		t.Errorf("notify latency has %d samples, want none", n)
	}
}
