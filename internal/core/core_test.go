package core_test

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"camelot/internal/core"
	"camelot/internal/params"
	"camelot/internal/sim"
	"camelot/internal/tid"
	"camelot/internal/trace"
	"camelot/internal/transport"
	"camelot/internal/wal"
	"camelot/internal/wire"
)

// fakePart is a scriptable participant: it votes as told and counts
// callbacks, which isolates the transaction manager's protocol
// machinery from the data-server implementation.
type fakePart struct {
	name    string
	vote    wire.Vote
	asked   int
	commits int
	aborts  int
	childC  int
	childA  int
}

func (p *fakePart) Name() string                { return p.name }
func (p *fakePart) Vote(tid.FamilyID) wire.Vote { p.asked++; return p.vote }
func (p *fakePart) CommitFamily(tid.FamilyID)   { p.commits++ }
func (p *fakePart) AbortFamily(tid.FamilyID)    { p.aborts++ }
func (p *fakePart) CommitChild(c tid.TID)       { p.childC++ }
func (p *fakePart) AbortChild(c tid.TID)        { p.childA++ }

// site bundles one manager with its log and a default participant.
type site struct {
	m    *core.Manager
	log  *wal.Log
	part *fakePart
}

// harness builds n sites on one simulated network.
type harness struct {
	k     *sim.Kernel
	net   *transport.Network
	netTr *trace.Collector // the network's ledger: every site's datagrams
	sites map[tid.SiteID]*site
	// wrapStore, if set, interposes on the stable store of sites added
	// after it; ackFlush and ackWait, if set, replace their
	// AckFlushInterval and AckWait.
	wrapStore func(wal.Store) wal.Store
	ackFlush  time.Duration
	ackWait   time.Duration
}

func newHarness(t *testing.T, n int) *harness {
	t.Helper()
	k := sim.New(1)
	h := &harness{k: k, netTr: trace.NewCounters(), sites: make(map[tid.SiteID]*site)}
	h.net = transport.NewNetwork(k, transport.Config{Latency: time.Millisecond, SendCycle: 10 * time.Microsecond, Trace: h.netTr})
	for id := tid.SiteID(1); id <= tid.SiteID(n); id++ {
		h.addSite(id)
	}
	return h
}

func (h *harness) addSite(id tid.SiteID) *site {
	var store wal.Store = wal.NewMemStore()
	if h.wrapStore != nil {
		store = h.wrapStore(store)
	}
	ackFlush := 10 * time.Millisecond
	if h.ackFlush > 0 {
		ackFlush = h.ackFlush
	}
	log := wal.Open(h.k, store, wal.Config{
		GroupCommit: true, ForceLatency: time.Millisecond, FlushInterval: 10 * time.Millisecond,
	})
	m := core.New(h.k, core.Config{
		Site:             id,
		Threads:          4,
		Params:           params.Fast(),
		RetryInterval:    20 * time.Millisecond,
		InquireInterval:  30 * time.Millisecond,
		PromotionTimeout: 50 * time.Millisecond,
		AckFlushInterval: ackFlush,
		AckWait:          h.ackWait,
	}, log, h.net)
	h.net.Register(id, func(d transport.Datagram) {
		if msg, ok := d.Payload.(*wire.Msg); ok {
			m.Deliver(msg)
		}
	})
	s := &site{m: m, log: log, part: &fakePart{name: fmt.Sprintf("part%d", id), vote: wire.VoteYes}}
	h.sites[id] = s
	return s
}

// sent counts the datagrams every site has sent so far.
func (h *harness) sent() int {
	n := 0
	for _, s := range h.netTr.Sites() {
		n += h.netTr.Site(s).MsgsSent
	}
	return n
}

// run executes fn as the simulation body and fails on deadlock.
func (h *harness) run(t *testing.T, fn func()) {
	t.Helper()
	h.k.Go("test", func() {
		fn()
		h.k.Stop()
	})
	h.k.RunUntil(5 * time.Minute)
	if msg := h.k.Deadlocked(); msg != "" {
		t.Fatal(msg)
	}
}

// beginDistributed begins a transaction at site 1, joins the local
// participant, and registers remote joins at the given sites.
func (h *harness) beginDistributed(t *testing.T, subs ...tid.SiteID) tid.TID {
	t.Helper()
	return h.beginAt(t, 1, subs...)
}

// beginAt is beginDistributed with the coordinator named.
func (h *harness) beginAt(t *testing.T, coord tid.SiteID, subs ...tid.SiteID) tid.TID {
	t.Helper()
	s1 := h.sites[coord]
	txn, err := s1.m.Begin()
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if err := s1.m.Join(txn, nil, s1.part); err != nil {
		t.Fatalf("local join: %v", err)
	}
	for _, sub := range subs {
		if err := h.sites[sub].m.Join(txn, nil, h.sites[sub].part); err != nil {
			t.Fatalf("join at %v: %v", sub, err)
		}
	}
	s1.m.AddSites(txn, subs)
	return txn
}

func countRecords(t *testing.T, log *wal.Log, typ wal.RecType) int {
	t.Helper()
	log.Force(math.MaxUint64) //nolint:errcheck
	recs, err := log.Records()
	if err != nil {
		t.Fatalf("Records: %v", err)
	}
	n := 0
	for _, r := range recs {
		if r.Type == typ {
			n++
		}
	}
	return n
}

func TestBeginAssignsUniqueTIDs(t *testing.T) {
	h := newHarness(t, 1)
	h.run(t, func() {
		seen := make(map[tid.TID]bool)
		for i := 0; i < 50; i++ {
			txn, err := h.sites[1].m.Begin()
			if err != nil {
				t.Fatalf("Begin: %v", err)
			}
			if seen[txn] {
				t.Fatalf("duplicate TID %v", txn)
			}
			seen[txn] = true
			if txn.Family.Origin() != 1 {
				t.Fatalf("TID origin = %v, want site1", txn.Family.Origin())
			}
		}
	})
}

func TestLocalCommitForcesOneRecord(t *testing.T) {
	h := newHarness(t, 1)
	h.run(t, func() {
		s := h.sites[1]
		txn := h.beginDistributed(t)
		out, err := s.m.Commit(txn, core.Options{})
		if err != nil || out != wire.OutcomeCommit {
			t.Fatalf("Commit = %v, %v", out, err)
		}
		h.k.Sleep(50 * time.Millisecond)
		if s.part.commits != 1 {
			t.Errorf("participant commits = %d, want 1", s.part.commits)
		}
		if n := countRecords(t, s.log, wal.RecCommit); n != 1 {
			t.Errorf("commit records = %d, want 1", n)
		}
		if n := countRecords(t, s.log, wal.RecPrepare); n != 0 {
			t.Errorf("local transaction wrote %d prepare records", n)
		}
	})
}

func TestLocalReadOnlyCommitWritesNothing(t *testing.T) {
	h := newHarness(t, 1)
	h.run(t, func() {
		s := h.sites[1]
		s.part.vote = wire.VoteReadOnly
		txn := h.beginDistributed(t)
		if _, err := s.m.Commit(txn, core.Options{}); err != nil {
			t.Fatalf("Commit: %v", err)
		}
		if got := s.log.Appends(); got != 0 {
			t.Errorf("read-only commit appended %d records", got)
		}
	})
}

func TestLocalNoVoteAborts(t *testing.T) {
	h := newHarness(t, 1)
	h.run(t, func() {
		s := h.sites[1]
		s.part.vote = wire.VoteNo
		txn := h.beginDistributed(t)
		_, err := s.m.Commit(txn, core.Options{})
		if !errors.Is(err, core.ErrAborted) {
			t.Fatalf("Commit = %v, want ErrAborted", err)
		}
		h.k.Sleep(50 * time.Millisecond)
		if s.part.aborts != 1 {
			t.Errorf("participant aborts = %d, want 1", s.part.aborts)
		}
	})
}

func TestDistributedCommitNotifiesAllSites(t *testing.T) {
	h := newHarness(t, 3)
	h.run(t, func() {
		txn := h.beginDistributed(t, 2, 3)
		if _, err := h.sites[1].m.Commit(txn, core.Options{}); err != nil {
			t.Fatalf("Commit: %v", err)
		}
		h.k.Sleep(200 * time.Millisecond)
		for id := tid.SiteID(1); id <= 3; id++ {
			if h.sites[id].part.commits != 1 {
				t.Errorf("site %d participant commits = %d, want 1", id, h.sites[id].part.commits)
			}
		}
		// Subordinates forced a prepare and lazily wrote a commit.
		for id := tid.SiteID(2); id <= 3; id++ {
			if n := countRecords(t, h.sites[id].log, wal.RecPrepare); n != 1 {
				t.Errorf("site %d prepare records = %d, want 1", id, n)
			}
			if n := countRecords(t, h.sites[id].log, wal.RecCommit); n != 1 {
				t.Errorf("site %d commit records = %d, want 1", id, n)
			}
		}
		// Coordinator forgot after the acks: an END record exists.
		if n := countRecords(t, h.sites[1].log, wal.RecEnd); n != 1 {
			t.Errorf("coordinator END records = %d, want 1", n)
		}
	})
}

func TestRemoteNoVoteAbortsEverywhere(t *testing.T) {
	h := newHarness(t, 3)
	h.run(t, func() {
		h.sites[3].part.vote = wire.VoteNo
		txn := h.beginDistributed(t, 2, 3)
		_, err := h.sites[1].m.Commit(txn, core.Options{})
		if !errors.Is(err, core.ErrAborted) {
			t.Fatalf("Commit = %v, want ErrAborted", err)
		}
		h.k.Sleep(200 * time.Millisecond)
		if h.sites[2].part.aborts != 1 {
			t.Errorf("yes-voting subordinate aborts = %d, want 1", h.sites[2].part.aborts)
		}
		if h.sites[1].part.aborts != 1 {
			t.Errorf("coordinator participant aborts = %d, want 1", h.sites[1].part.aborts)
		}
	})
}

func TestReadOnlySubordinateSkipsPhaseTwo(t *testing.T) {
	h := newHarness(t, 2)
	h.run(t, func() {
		h.sites[2].part.vote = wire.VoteReadOnly
		txn := h.beginDistributed(t, 2)
		if _, err := h.sites[1].m.Commit(txn, core.Options{}); err != nil {
			t.Fatalf("Commit: %v", err)
		}
		h.k.Sleep(100 * time.Millisecond)
		if got := h.sites[2].log.Appends(); got != 0 {
			t.Errorf("read-only subordinate appended %d records", got)
		}
		if h.sites[2].part.commits != 1 {
			t.Errorf("read-only subordinate never released (commits=%d)", h.sites[2].part.commits)
		}
	})
}

func TestDisableReadOnlyOptForcesFullPath(t *testing.T) {
	h := newHarness(t, 2)
	h.run(t, func() {
		h.sites[1].part.vote = wire.VoteReadOnly
		h.sites[2].part.vote = wire.VoteReadOnly
		txn := h.beginDistributed(t, 2)
		if _, err := h.sites[1].m.Commit(txn, core.Options{DisableReadOnlyOpt: true}); err != nil {
			t.Fatalf("Commit: %v", err)
		}
		h.k.Sleep(100 * time.Millisecond)
		// With the optimization disabled the subordinate prepares and
		// commits on disk despite being read-only.
		if n := countRecords(t, h.sites[2].log, wal.RecPrepare); n != 1 {
			t.Errorf("sub prepare records = %d, want 1", n)
		}
	})
}

func TestCommitCompletesUnderMessageLoss(t *testing.T) {
	h := newHarness(t, 2)
	// 30% loss: retries must finish the protocol.
	h.net.SetLossRate(0.3)
	h.run(t, func() {
		for i := 0; i < 5; i++ {
			txn := h.beginDistributed(t, 2)
			if _, err := h.sites[1].m.Commit(txn, core.Options{}); err != nil {
				t.Fatalf("Commit %d under loss: %v", i, err)
			}
		}
		h.k.Sleep(2 * time.Second)
		if h.sites[2].part.commits != 5 {
			t.Errorf("subordinate commits = %d, want 5", h.sites[2].part.commits)
		}
	})
}

func TestDuplicatePrepareAnsweredIdempotently(t *testing.T) {
	h := newHarness(t, 2)
	h.run(t, func() {
		txn := h.beginDistributed(t, 2)
		if _, err := h.sites[1].m.Commit(txn, core.Options{}); err != nil {
			t.Fatalf("Commit: %v", err)
		}
		h.k.Sleep(100 * time.Millisecond)
		before := countRecords(t, h.sites[2].log, wal.RecPrepare)
		// Replay a stale PREPARE at the subordinate: it must not
		// prepare again (the family is resolved and forgotten, so the
		// safe answer is a No vote, which the coordinator will drop).
		h.sites[2].m.Deliver(&wire.Msg{Kind: wire.KPrepare, TID: txn, From: 1, To: 2})
		h.k.Sleep(100 * time.Millisecond)
		if after := countRecords(t, h.sites[2].log, wal.RecPrepare); after != before {
			t.Errorf("duplicate PREPARE wrote %d extra prepare records", after-before)
		}
	})
}

func TestCoordinatorAnswersInquiryAfterForgetting(t *testing.T) {
	h := newHarness(t, 2)
	h.run(t, func() {
		// An inquiry for a transaction the coordinator never heard of
		// must be answered ABORT — presumed abort.
		unknown := tid.Top(tid.MakeFamily(1, 999))
		got := make(chan wire.Kind, 1)
		h.net.Register(2, func(d transport.Datagram) {
			if msg, ok := d.Payload.(*wire.Msg); ok && msg.TID == unknown {
				select {
				case got <- msg.Kind:
				default:
				}
			}
		})
		h.sites[1].m.Deliver(&wire.Msg{Kind: wire.KInquire, TID: unknown, From: 2, To: 1})
		h.k.Sleep(100 * time.Millisecond)
		select {
		case kind := <-got:
			if kind != wire.KAbort {
				t.Errorf("inquiry answered %v, want ABORT (presumed abort)", kind)
			}
		default:
			t.Error("inquiry never answered")
		}
	})
}

func TestNonBlockingCommitRecordsAtEverySite(t *testing.T) {
	h := newHarness(t, 3)
	h.run(t, func() {
		txn := h.beginDistributed(t, 2, 3)
		if _, err := h.sites[1].m.Commit(txn, core.Options{Protocol: wire.NonBlocking}); err != nil {
			t.Fatalf("NB Commit: %v", err)
		}
		h.k.Sleep(300 * time.Millisecond)
		// Each site forced two records: prepare and replication
		// intent (§3.3: "requires each site to force two log
		// records").
		for id := tid.SiteID(1); id <= 3; id++ {
			p := countRecords(t, h.sites[id].log, wal.RecPrepare)
			r := countRecords(t, h.sites[id].log, wal.RecNBReplicate)
			if p != 1 || r != 1 {
				t.Errorf("site %d: prepare=%d replicate=%d, want 1/1", id, p, r)
			}
		}
	})
}

// A duplicated NB-VOTE can reach the coordinator while its replication
// force has the family lock released. Vote collection is over by then:
// the replication phase runs once, so each site forces one NB-REPLICATE.
func TestDuplicateNBVoteReplicatesOnce(t *testing.T) {
	h := newHarness(t, 2)
	h.net.SetShaper(func(_, _ tid.SiteID, payload any, _ bool) transport.Shape {
		if msg, ok := payload.(*wire.Msg); ok && msg.Kind == wire.KNBVote {
			return transport.Shape{Dup: 1}
		}
		return transport.Shape{}
	})
	h.run(t, func() {
		txn := h.beginDistributed(t, 2)
		if _, err := h.sites[1].m.Commit(txn, core.Options{Protocol: wire.NonBlocking}); err != nil {
			t.Fatalf("NB Commit: %v", err)
		}
		h.k.Sleep(300 * time.Millisecond)
		for id := tid.SiteID(1); id <= 2; id++ {
			if n := countRecords(t, h.sites[id].log, wal.RecNBReplicate); n != 1 {
				t.Errorf("site %d forced %d NB-REPLICATE records, want 1", id, n)
			}
		}
	})
}

func TestNonBlockingAbortOnNoVote(t *testing.T) {
	h := newHarness(t, 3)
	h.run(t, func() {
		h.sites[2].part.vote = wire.VoteNo
		txn := h.beginDistributed(t, 2, 3)
		_, err := h.sites[1].m.Commit(txn, core.Options{Protocol: wire.NonBlocking})
		if !errors.Is(err, core.ErrAborted) {
			t.Fatalf("Commit = %v, want ErrAborted", err)
		}
		h.k.Sleep(300 * time.Millisecond)
		// No site may hold a replicated commit intent.
		for id := tid.SiteID(1); id <= 3; id++ {
			if n := countRecords(t, h.sites[id].log, wal.RecNBReplicate); n != 0 {
				t.Errorf("site %d holds %d replicate records after abort", id, n)
			}
		}
		if h.sites[3].part.aborts != 1 {
			t.Errorf("yes-voting sub aborts = %d, want 1", h.sites[3].part.aborts)
		}
	})
}

// TestCommitWithUnknownProtocolAborts: a Protocol value outside the
// enum has no implementation to run. Commit must not guess one — no
// prepare of any flavour leaves the coordinator — and must not leave
// the transaction hanging either: it is aborted through the ordinary
// abort protocol, whose ABORT notices are the only datagrams sent.
func TestCommitWithUnknownProtocolAborts(t *testing.T) {
	h := newHarness(t, 3)
	var kinds []wire.Kind
	h.net.SetShaper(func(from, to tid.SiteID, payload any, _ bool) transport.Shape {
		if msg, ok := payload.(*wire.Msg); ok {
			kinds = append(kinds, msg.Kind)
		}
		return transport.Shape{Drop: false}
	})
	h.run(t, func() {
		txn := h.beginDistributed(t, 2, 3)
		out, err := h.sites[1].m.Commit(txn, core.Options{Protocol: 9})
		if !errors.Is(err, core.ErrAborted) || out != wire.OutcomeAbort {
			t.Fatalf("Commit = %v, %v; want an abort", out, err)
		}
		if !strings.Contains(err.Error(), wire.Protocol(9).String()) {
			t.Errorf("refusal %q does not name the protocol value", err)
		}
		h.k.Sleep(200 * time.Millisecond)
		for id, s := range h.sites {
			if s.part.aborts != 1 || s.part.commits != 0 {
				t.Errorf("site %v: aborts=%d commits=%d, want 1/0", id, s.part.aborts, s.part.commits)
			}
		}
		for _, k := range kinds {
			if k != wire.KAbort {
				t.Errorf("sent %v under an unknown protocol; only ABORT notices may go out", k)
			}
		}

		// With no remote site to tell, nothing is sent at all.
		kinds = nil
		local := h.beginDistributed(t)
		if _, err := h.sites[1].m.Commit(local, core.Options{Protocol: 9}); !errors.Is(err, core.ErrAborted) {
			t.Fatalf("local Commit = %v, want an abort", err)
		}
		h.k.Sleep(200 * time.Millisecond)
		if len(kinds) != 0 {
			t.Errorf("local-only refusal sent %v, want nothing", kinds)
		}
	})
}

func TestCommitResolvesWhenSubordinateSilent(t *testing.T) {
	h := newHarness(t, 2)
	h.run(t, func() {
		txn := h.beginDistributed(t, 2)
		h.net.SetDown(2, true) // sub never votes
		_, err := h.sites[1].m.Commit(txn, core.Options{})
		if !errors.Is(err, core.ErrAborted) {
			t.Fatalf("Commit with silent sub = %v, want ErrAborted", err)
		}
	})
}

func TestStatsCounters(t *testing.T) {
	h := newHarness(t, 1)
	h.run(t, func() {
		s := h.sites[1]
		for i := 0; i < 3; i++ {
			txn := h.beginDistributed(t)
			s.m.Commit(txn, core.Options{}) //nolint:errcheck
		}
		txn := h.beginDistributed(t)
		s.m.Abort(txn) //nolint:errcheck
		st := s.m.Stats()
		if st.Begun != 4 {
			t.Errorf("Begun = %d, want 4", st.Begun)
		}
		if st.Committed != 3 {
			t.Errorf("Committed = %d, want 3", st.Committed)
		}
		if st.Aborted != 1 {
			t.Errorf("Aborted = %d, want 1", st.Aborted)
		}
	})
}

func TestJoinAfterCommitStartedFails(t *testing.T) {
	h := newHarness(t, 2)
	h.run(t, func() {
		txn := h.beginDistributed(t, 2)
		done := false
		h.k.Go("commit", func() {
			h.sites[1].m.Commit(txn, core.Options{}) //nolint:errcheck
			done = true
		})
		h.k.Sleep(time.Millisecond) // coordinator is mid-phase-one
		late := &fakePart{name: "late", vote: wire.VoteYes}
		err := h.sites[1].m.Join(txn, nil, late)
		if err == nil {
			t.Error("Join at the coordinator after commitment began succeeded")
		}
		h.k.Sleep(time.Second)
		if !done {
			t.Error("commit never finished")
		}
	})
}

func TestAbortUnknownTransaction(t *testing.T) {
	h := newHarness(t, 1)
	h.run(t, func() {
		// Abort of an unknown transaction is a no-op success under
		// presumed abort.
		if err := h.sites[1].m.Abort(tid.Top(tid.MakeFamily(1, 12345))); err != nil {
			t.Errorf("Abort(unknown) = %v", err)
		}
	})
}

func TestBeginChildUnknownParentFails(t *testing.T) {
	h := newHarness(t, 1)
	h.run(t, func() {
		_, _, err := h.sites[1].m.BeginChild(tid.Top(tid.MakeFamily(1, 777)))
		if !errors.Is(err, core.ErrUnknownTransaction) {
			t.Errorf("BeginChild(unknown) = %v, want ErrUnknownTransaction", err)
		}
	})
}

// TestRemoteMergeKeepsTheChain: C (top → G → P → C) joins at site 2
// and commits into P, which site 2 meets only through that merge. Site
// 2 must know P with P's own chain, so a child begun there under P gets
// the full chain, and G's abort forgets both.
func TestRemoteMergeKeepsTheChain(t *testing.T) {
	h := newHarness(t, 2)
	h.run(t, func() {
		m1, m2 := h.sites[1].m, h.sites[2].m
		top, _ := m1.Begin()
		g, _, _ := m1.BeginChild(top)
		p, _, _ := m1.BeginChild(g)
		c, anc, err := m1.BeginChild(p)
		if err != nil || !slices.Equal(anc, []tid.TID{top, g, p}) {
			t.Fatalf("BeginChild(P) = %v, %v, %v; want the chain [top G P]", c, anc, err)
		}
		if err := m2.Join(c, anc, h.sites[2].part); err != nil {
			t.Fatal(err)
		}
		m1.AddSites(c, []tid.SiteID{2})
		if _, err := m1.Commit(c, core.Options{}); err != nil {
			t.Fatalf("commit C into P: %v", err)
		}
		h.k.Sleep(10 * time.Millisecond) // CHILD-COMMIT reaches site 2
		d, anc, err := m2.BeginChild(p)
		if err != nil || !slices.Equal(anc, []tid.TID{top, g, p}) {
			t.Fatalf("site 2 BeginChild(P) = %v, %v, %v; want the chain [top G P]", d, anc, err)
		}
		if err := m1.Abort(g); err != nil {
			t.Fatalf("abort G: %v", err)
		}
		h.k.Sleep(10 * time.Millisecond) // CHILD-ABORT reaches site 2
		for _, x := range []tid.TID{p, d} {
			if _, _, err := m2.BeginChild(x); !errors.Is(err, core.ErrUnknownTransaction) {
				t.Errorf("site 2 BeginChild(%v) after G's abort = %v, want ErrUnknownTransaction", x, err)
			}
		}
	})
}

func TestPiggybackedAcksLetCoordinatorForget(t *testing.T) {
	h := newHarness(t, 2)
	h.run(t, func() {
		txn := h.beginDistributed(t, 2)
		if _, err := h.sites[1].m.Commit(txn, core.Options{}); err != nil {
			t.Fatalf("Commit: %v", err)
		}
		// The delayed ack travels on the ack flusher (nothing else to
		// piggyback on); the coordinator must eventually write END.
		h.k.Sleep(500 * time.Millisecond)
		if n := countRecords(t, h.sites[1].log, wal.RecEnd); n != 1 {
			t.Errorf("coordinator END records = %d, want 1 (ack never arrived)", n)
		}
		st := h.sites[2].m.Stats()
		if st.AcksPiggybacked+st.AcksStandalone == 0 {
			t.Error("no delayed ack was ever sent")
		}
	})
}

// TestCommitAllocs pins what a commit allocates on the simulation
// kernel, the transaction manager's share and the kernel's and log's
// under it: a one-server local commit at its coordinator, a two-site
// commit's subordinate side, driven by a sink standing in for the
// coordinator, and its coordinator side, whose subordinate's vote and
// ack a sink hands back. Each takes two snapshots of the family's
// participants, with the lock dropped around the calls they make; a
// snapshot is one allocation. The bounds leave room for the race
// detector's own allocations.
func TestCommitAllocs(t *testing.T) {
	t.Run("local", func(t *testing.T) {
		h := newHarness(t, 1)
		s := h.sites[1]
		cycle := func() {
			txn, err := s.m.Begin()
			if err == nil {
				err = s.m.Join(txn, nil, s.part)
			}
			if err == nil {
				_, err = s.m.Commit(txn, core.Options{})
			}
			if err != nil {
				t.Error(err)
			}
		}
		var allocs float64
		h.run(t, func() {
			cycle()
			allocs = testing.AllocsPerRun(100, cycle)
		})
		if allocs > 50 {
			t.Errorf("a one-server local commit allocates %v times, want ≤ 50", allocs)
		}
	})
	t.Run("subordinate", func(t *testing.T) {
		h := newHarness(t, 0)
		s := h.addSite(2)
		h.net.Register(3, func(transport.Datagram) {})
		n := uint32(0)
		cycle := func() {
			n++
			txn := tid.Top(tid.MakeFamily(3, n))
			if err := s.m.Join(txn, nil, s.part); err != nil {
				t.Error(err)
			}
			s.m.Deliver(&wire.Msg{Kind: wire.KPrepare, TID: txn, From: 3, To: 2})
			h.k.Sleep(5 * time.Millisecond)
			s.m.Deliver(&wire.Msg{Kind: wire.KCommit, TID: txn, From: 3, To: 2})
			h.k.Sleep(5 * time.Millisecond)
		}
		var allocs float64
		h.run(t, func() {
			cycle()
			allocs = testing.AllocsPerRun(100, cycle)
		})
		if s.part.commits != 102 {
			t.Errorf("participant commits = %d, want 102", s.part.commits)
		}
		if allocs > 82 {
			t.Errorf("a two-site commit's subordinate side allocates %v times, want ≤ 82", allocs)
		}
	})
	t.Run("coordinator", func(t *testing.T) {
		h := newHarness(t, 1)
		s := h.sites[1]
		h.net.Register(2, func(d transport.Datagram) {
			msg := d.Payload.(*wire.Msg)
			switch msg.Kind {
			case wire.KPrepare:
				s.m.Deliver(&wire.Msg{Kind: wire.KVote, TID: msg.TID, From: 2, To: 1, Vote: wire.VoteYes})
			case wire.KCommit:
				s.m.Deliver(&wire.Msg{Kind: wire.KCommitAck, TID: msg.TID, From: 2, To: 1})
			}
		})
		sub := []tid.SiteID{2}
		cycle := func() {
			txn, err := s.m.Begin()
			if err == nil {
				err = s.m.Join(txn, nil, s.part)
			}
			if err == nil {
				s.m.AddSites(txn, sub)
				_, err = s.m.Commit(txn, core.Options{})
			}
			if err != nil {
				t.Error(err)
			}
			h.k.Sleep(5 * time.Millisecond)
		}
		var allocs float64
		h.run(t, func() {
			cycle()
			allocs = testing.AllocsPerRun(100, cycle)
			if n := countRecords(t, s.log, wal.RecEnd); n != 102 {
				t.Errorf("END records = %d, want 102: an ack went missing", n)
			}
		})
		if allocs > 88 {
			t.Errorf("a two-site commit's coordinator side allocates %v times, want ≤ 88", allocs)
		}
	})
}

// loggingPart is a fakePart that also notes each vote request and
// outcome it gets, with its name, in a log shared by several.
type loggingPart struct {
	fakePart
	log *[]string
}

func (p *loggingPart) Vote(f tid.FamilyID) wire.Vote {
	*p.log = append(*p.log, "vote "+p.name)
	return p.fakePart.Vote(f)
}

func (p *loggingPart) CommitFamily(f tid.FamilyID) {
	*p.log = append(*p.log, "commit "+p.name)
	p.fakePart.CommitFamily(f)
}

// TestParticipantsVisitedInNameOrder: servers that join in reverse name
// order are asked to vote, and told the outcome, in name order, and a
// server that two transactions of the family joined is asked once.
func TestParticipantsVisitedInNameOrder(t *testing.T) {
	h := newHarness(t, 1)
	h.run(t, func() {
		m := h.sites[1].m
		var log []string
		part := func(name string) *loggingPart {
			return &loggingPart{fakePart: fakePart{name: name, vote: wire.VoteYes}, log: &log}
		}
		c, b, a := part("srvC"), part("srvB"), part("srvA")
		txn, err := m.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []*loggingPart{c, b, a} {
			if err := m.Join(txn, nil, p); err != nil {
				t.Fatal(err)
			}
		}
		child, anc, err := m.BeginChild(txn)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Join(child, anc, b); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Commit(child, core.Options{}); err != nil {
			t.Fatalf("child commit: %v", err)
		}
		if _, err := m.Commit(txn, core.Options{}); err != nil {
			t.Fatalf("Commit: %v", err)
		}
		h.k.Sleep(50 * time.Millisecond) // the release runs on its own thread
		want := []string{"vote srvA", "vote srvB", "vote srvC", "commit srvA", "commit srvB", "commit srvC"}
		if !slices.Equal(log, want) {
			t.Errorf("calls %q, want %q", log, want)
		}
	})
}

// TestRemoteSitesVisitedInSiteOrder: sites that a family reaches out of
// order, one of them twice, are sent each round of PREPARE — the first
// round's votes lost, so the coordinator re-asks — and the COMMIT in
// site order, once each; and a nested transaction's CHILD-ABORT reaches
// a site its committed child and it both touched once.
func TestRemoteSitesVisitedInSiteOrder(t *testing.T) {
	h := newHarness(t, 4)
	var sent []string
	lost := 0
	h.net.SetShaper(func(from, to tid.SiteID, payload any, _ bool) transport.Shape {
		msg := payload.(*wire.Msg)
		switch {
		case from == 1 && (msg.Kind == wire.KPrepare || msg.Kind == wire.KCommit || msg.Kind == wire.KChildAbort):
			sent = append(sent, fmt.Sprintf("%v→%v", msg.Kind, to))
		case msg.Kind == wire.KVote && lost < 3:
			lost++
			return transport.Shape{Drop: true}
		}
		return transport.Shape{}
	})
	h.run(t, func() {
		m := h.sites[1].m
		join := func(txn tid.TID, anc []tid.TID, at tid.SiteID) {
			t.Helper()
			if err := h.sites[at].m.Join(txn, anc, h.sites[at].part); err != nil {
				t.Fatal(err)
			}
			if at != 1 {
				m.AddSites(txn, []tid.SiteID{at})
			}
		}
		txn, err := m.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for _, at := range []tid.SiteID{1, 4, 3, 2} {
			join(txn, nil, at)
		}
		child, anc, err := m.BeginChild(txn)
		if err != nil {
			t.Fatal(err)
		}
		join(child, anc, 2)
		if _, err := m.Commit(child, core.Options{}); err != nil {
			t.Fatalf("child commit: %v", err)
		}
		if _, err := m.Commit(txn, core.Options{}); err != nil {
			t.Fatalf("Commit: %v", err)
		}

		other, err := m.Begin()
		if err != nil {
			t.Fatal(err)
		}
		parent, panc, err := m.BeginChild(other)
		if err != nil {
			t.Fatal(err)
		}
		join(parent, panc, 4)
		child, anc, err = m.BeginChild(parent)
		if err != nil {
			t.Fatal(err)
		}
		join(child, anc, 4)
		if _, err := m.Commit(child, core.Options{}); err != nil {
			t.Fatalf("child commit: %v", err)
		}
		if err := m.Abort(parent); err != nil {
			t.Fatalf("Abort: %v", err)
		}
	})
	want := []string{
		"PREPARE→site2", "PREPARE→site3", "PREPARE→site4", // the votes are lost
		"PREPARE→site2", "PREPARE→site3", "PREPARE→site4",
		"COMMIT→site2", "COMMIT→site3", "COMMIT→site4",
		"CHILD-ABORT→site4",
	}
	if !slices.Equal(sent, want) {
		t.Errorf("site 1 sent %q, want %q", sent, want)
	}
}
