package core_test

import (
	"sync"
	"testing"
	"time"

	"camelot/internal/core"
	"camelot/internal/rt"
	"camelot/internal/tid"
	"camelot/internal/transport"
	"camelot/internal/wal"
	"camelot/internal/wire"
)

// lossyPeer wraps a real UDPPeer and deterministically swallows every
// third datagram before it reaches the socket — real loss on a real
// network path, not the simulator's modeled loss. The transaction
// managers must not notice: their RetryInterval machinery exists
// precisely to mask this.
type lossyPeer struct {
	inner *transport.UDPPeer

	mu      sync.Mutex
	count   int
	dropped int
}

func (l *lossyPeer) lose() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.count++
	if l.count%3 == 0 {
		l.dropped++
		return true
	}
	return false
}

func (l *lossyPeer) drops() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

func (l *lossyPeer) Send(from, to tid.SiteID, payload any) {
	if l.lose() {
		return
	}
	l.inner.Send(from, to, payload)
}

func (l *lossyPeer) Multicast(from tid.SiteID, tos []tid.SiteID, payload any) {
	for _, to := range tos {
		l.Send(from, to, payload)
	}
}

func (l *lossyPeer) SendAll(from tid.SiteID, tos []tid.SiteID, payload any) {
	for _, to := range tos {
		l.Send(from, to, payload)
	}
}

var _ transport.Sender = (*lossyPeer)(nil)

// TestCommitOverLossyUDPMaskedByRetry runs full two-phase commits
// between two real-runtime transaction managers over loopback UDP
// with every third datagram destroyed, and requires every commit to
// succeed anyway: proof that the retry/inquiry machinery masks real
// datagram loss end to end, not just the simulator's model of it.
func TestCommitOverLossyUDPMaskedByRetry(t *testing.T) {
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
	lossy1 := &lossyPeer{inner: peer1}
	lossy2 := &lossyPeer{inner: peer2}

	mkSite := func(id tid.SiteID, peer *transport.UDPPeer, out transport.Sender) *core.Manager {
		log := wal.Open(r, wal.NewMemStore(), wal.Config{
			GroupCommit: true, FlushInterval: 2 * time.Millisecond,
		})
		m := core.New(r, core.Config{
			Site:             id,
			Threads:          4,
			RetryInterval:    25 * time.Millisecond,
			InquireInterval:  25 * time.Millisecond,
			PromotionTimeout: 50 * time.Millisecond,
			AckFlushInterval: 10 * time.Millisecond,
		}, log, out)
		peer.SetHandler(func(d transport.Datagram) {
			if msg, ok := d.Payload.(*wire.Msg); ok {
				m.Deliver(msg)
			}
		})
		return m
	}
	m1 := mkSite(1, peer1, lossy1)
	defer m1.Close()
	m2 := mkSite(2, peer2, lossy2)
	defer m2.Close()

	part1 := &atomicPart{name: "part", vote: wire.VoteYes}
	part2 := &atomicPart{name: "part", vote: wire.VoteYes}

	const txns = 10
	for i := 0; i < txns; i++ {
		txn, err := m1.Begin()
		if err != nil {
			t.Fatalf("txn %d: Begin: %v", i, err)
		}
		if err := m1.Join(txn, nil, part1); err != nil {
			t.Fatalf("txn %d: join 1: %v", i, err)
		}
		if err := m2.Join(txn, nil, part2); err != nil {
			t.Fatalf("txn %d: join 2: %v", i, err)
		}
		m1.AddSites(txn, []tid.SiteID{2})
		out, err := m1.Commit(txn, core.Options{})
		if err != nil || out != wire.OutcomeCommit {
			t.Fatalf("txn %d: commit over lossy UDP = %v, %v", i, out, err)
		}
	}

	// The loss wrapper must actually have bitten for the test to mean
	// anything: ~1/3 of all protocol datagrams died in flight.
	if lossy1.drops()+lossy2.drops() == 0 {
		t.Fatal("loss wrapper dropped nothing; test exercised no loss")
	}

	// Every subordinate commit eventually applies despite the losses.
	deadline := time.Now().Add(10 * time.Second)
	for part2.commits.Load() != txns && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := part2.commits.Load(); got != txns {
		t.Fatalf("subordinate applied %d/%d commits", got, txns)
	}
}
