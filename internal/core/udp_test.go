package core_test

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"camelot/internal/core"
	"camelot/internal/params"
	"camelot/internal/rt"
	"camelot/internal/tid"
	"camelot/internal/transport"
	"camelot/internal/wal"
	"camelot/internal/wire"
)

// atomicPart is a participant safe for the real runtime's true
// concurrency.
type atomicPart struct {
	name    string
	vote    wire.Vote
	commits atomic.Int32
	aborts  atomic.Int32
}

func (p *atomicPart) Name() string                { return p.name }
func (p *atomicPart) Vote(tid.FamilyID) wire.Vote { return p.vote }
func (p *atomicPart) CommitFamily(tid.FamilyID)   { p.commits.Add(1) }
func (p *atomicPart) AbortFamily(tid.FamilyID)    { p.aborts.Add(1) }
func (p *atomicPart) CommitChild(c tid.TID)       {}
func (p *atomicPart) AbortChild(c tid.TID)        {}

// TestTwoPhaseCommitOverRealUDP runs the full presumed-abort protocol
// between two transaction managers on the real Go runtime, exchanging
// marshaled datagrams over loopback UDP — the same protocol code the
// simulation drives, on a real network.
func TestTwoPhaseCommitOverRealUDP(t *testing.T) {
	r := rt.Real()

	peer1, err := transport.NewUDPPeer(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer peer1.Close()
	peer2, err := transport.NewUDPPeer(2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer peer2.Close()
	if err := peer1.AddPeer(2, peer2.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := peer2.AddPeer(1, peer1.Addr()); err != nil {
		t.Fatal(err)
	}

	mkSite := func(id tid.SiteID, peer *transport.UDPPeer) (*core.Manager, *atomicPart, *wal.Log) {
		log := wal.Open(r, wal.NewMemStore(), wal.Config{
			GroupCommit: true, FlushInterval: 5 * time.Millisecond,
		})
		m := core.New(r, core.Config{
			Site:             id,
			Threads:          4,
			Params:           params.Params{}, // no simulated charges on a real network
			RetryInterval:    50 * time.Millisecond,
			InquireInterval:  50 * time.Millisecond,
			PromotionTimeout: 100 * time.Millisecond,
			AckFlushInterval: 10 * time.Millisecond,
		}, log, peer)
		peer.SetHandler(func(d transport.Datagram) {
			if msg, ok := d.Payload.(*wire.Msg); ok {
				m.Deliver(msg)
			}
		})
		return m, &atomicPart{name: "part", vote: wire.VoteYes}, log
	}
	m1, p1, _ := mkSite(1, peer1)
	defer m1.Close()
	m2, p2, log2 := mkSite(2, peer2)
	defer m2.Close()

	// A committed distributed transaction.
	txn, err := m1.Begin()
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if err := m1.Join(txn, nil, p1); err != nil {
		t.Fatalf("join 1: %v", err)
	}
	if err := m2.Join(txn, nil, p2); err != nil {
		t.Fatalf("join 2: %v", err)
	}
	m1.AddSites(txn, []tid.SiteID{2})

	out, err := m1.Commit(txn, core.Options{})
	if err != nil || out != wire.OutcomeCommit {
		t.Fatalf("Commit over UDP = %v, %v", out, err)
	}

	// The subordinate applies and its log fills in.
	deadline := time.Now().Add(5 * time.Second)
	for p2.commits.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if p2.commits.Load() != 1 {
		t.Fatalf("subordinate commits = %d, want 1", p2.commits.Load())
	}
	log2.Force(math.MaxUint64) //nolint:errcheck
	recs, _ := log2.Records()
	var prepares, commits int
	for _, rec := range recs {
		switch rec.Type {
		case wal.RecPrepare:
			prepares++
		case wal.RecCommit:
			commits++
		}
	}
	if prepares != 1 || commits != 1 {
		t.Fatalf("subordinate log: %d prepares, %d commits; want 1/1", prepares, commits)
	}

	// An aborted one: the remote participant votes No.
	p2.vote = wire.VoteNo
	txn2, _ := m1.Begin()
	m1.Join(txn2, nil, p1) //nolint:errcheck
	m2.Join(txn2, nil, p2) //nolint:errcheck
	m1.AddSites(txn2, []tid.SiteID{2})
	if _, err := m1.Commit(txn2, core.Options{}); err == nil {
		t.Fatal("commit succeeded despite a No vote over UDP")
	}
}

// TestNonBlockingCommitOverRealUDP drives the three-phase protocol
// over loopback UDP among three real-runtime managers.
func TestNonBlockingCommitOverRealUDP(t *testing.T) {
	r := rt.Real()
	peers := make(map[tid.SiteID]*transport.UDPPeer)
	for id := tid.SiteID(1); id <= 3; id++ {
		p, err := transport.NewUDPPeer(id, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		peers[id] = p
	}
	for a := tid.SiteID(1); a <= 3; a++ {
		for b := tid.SiteID(1); b <= 3; b++ {
			if a != b {
				if err := peers[a].AddPeer(b, peers[b].Addr()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	mgrs := make(map[tid.SiteID]*core.Manager)
	parts := make(map[tid.SiteID]*atomicPart)
	for id := tid.SiteID(1); id <= 3; id++ {
		log := wal.Open(r, wal.NewMemStore(), wal.Config{GroupCommit: true, FlushInterval: 5 * time.Millisecond})
		m := core.New(r, core.Config{
			Site: id, Threads: 4,
			RetryInterval:    50 * time.Millisecond,
			InquireInterval:  50 * time.Millisecond,
			PromotionTimeout: 100 * time.Millisecond,
			AckFlushInterval: 10 * time.Millisecond,
		}, log, peers[id])
		peer := peers[id]
		peer.SetHandler(func(d transport.Datagram) {
			if msg, ok := d.Payload.(*wire.Msg); ok {
				m.Deliver(msg)
			}
		})
		defer m.Close()
		mgrs[id] = m
		parts[id] = &atomicPart{name: "part", vote: wire.VoteYes}
	}

	txn, err := mgrs[1].Begin()
	if err != nil {
		t.Fatal(err)
	}
	for id := tid.SiteID(1); id <= 3; id++ {
		if err := mgrs[id].Join(txn, nil, parts[id]); err != nil {
			t.Fatalf("join %d: %v", id, err)
		}
	}
	mgrs[1].AddSites(txn, []tid.SiteID{2, 3})

	out, err := mgrs[1].Commit(txn, core.Options{Protocol: wire.NonBlocking})
	if err != nil || out != wire.OutcomeCommit {
		t.Fatalf("NB commit over UDP = %v, %v", out, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if parts[2].commits.Load() == 1 && parts[3].commits.Load() == 1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("subordinates never applied: %d, %d",
		parts[2].commits.Load(), parts[3].commits.Load())
}
