package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"camelot/internal/params"
	"camelot/internal/recman"
	"camelot/internal/sim"
	"camelot/internal/tid"
	"camelot/internal/transport"
	"camelot/internal/wal"
	"camelot/internal/wire"
)

// The one table of stalled-family steps (tick) and recovery's way into
// it (Restore), for every protocol: per state a family can stall in —
// or be restored to — the datagrams its next step sends, the state it
// leaves the family in, and what it adds to the retry counters. Site 1
// is the subject; every datagram it sends is recorded and lost, so no
// answer moves the family past that one step.

// sent is one datagram the subject sent.
type sent struct {
	kind wire.Kind
	to   tid.SiteID
}

func (s sent) String() string { return fmt.Sprintf("%v→%v", s.kind, s.to) }

// counts are the Stats a stalled step may move.
type counts struct{ retransmits, inquiries, promotions int }

// stepRig is site 1 alone on a network that loses everything it sends.
type stepRig struct {
	k   *sim.Kernel
	m   *Manager
	out []sent
}

func newStepRig() *stepRig {
	k := sim.New(1)
	net := transport.NewNetwork(k, transport.Config{Latency: time.Millisecond, SendCycle: 10 * time.Microsecond})
	log := wal.Open(k, wal.NewMemStore(), wal.Config{
		GroupCommit: true, ForceLatency: time.Millisecond, FlushInterval: 10 * time.Millisecond,
	})
	r := &stepRig{k: k}
	r.m = New(k, Config{
		Site: 1, Threads: 2, Params: params.Fast(),
		RetryInterval: 20 * time.Millisecond, InquireInterval: 30 * time.Millisecond,
		PromotionTimeout: 50 * time.Millisecond, AckFlushInterval: 10 * time.Millisecond,
	}, log, net)
	net.SetShaper(func(from, to tid.SiteID, payload any, _ bool) transport.Shape {
		if msg, ok := payload.(*wire.Msg); ok {
			r.out = append(r.out, sent{msg.Kind, to})
		}
		return transport.Shape{Drop: true}
	})
	return r
}

var (
	ownFamily  = tid.MakeFamily(1, 1) // site 1 began it
	peerFamily = tid.MakeFamily(3, 1) // site 3 began it; site 1 takes part
	allSites   = []tid.SiteID{1, 2, 3}
	others     = []tid.SiteID{2, 3}
)

// to lists one datagram of kind to each site.
func to(kind wire.Kind, sites ...tid.SiteID) []sent {
	var out []sent
	for _, s := range sites {
		out = append(out, sent{kind, s})
	}
	return out
}

// A setup puts a family in the state a row stalls in (f's lock held).
type setup func(m *Manager, f *family)

func all(steps ...setup) setup {
	return func(m *Manager, f *family) {
		for _, s := range steps {
			s(m, f)
		}
	}
}

// under makes f a family of protocol p, with Paxos's acceptor set.
func under(p wire.Protocol, acceptors ...tid.SiteID) setup {
	return func(m *Manager, f *family) {
		f.opts.Protocol = p
		if p != wire.TwoPhase {
			f.nbSites = allSites
		}
		if p == wire.Paxos {
			f.paxAcceptors = acceptors
			m.ensurePaxos(f)
		}
	}
}

// collecting: site 1 asked sites 2 and 3 and holds its own Yes and
// site 2's; no acceptor has confirmed anything.
func collecting(m *Manager, f *family) {
	f.coord, f.ph, f.localVote = true, phPreparing, wire.VoteYes
	f.remoteSites = map[tid.SiteID]bool{2: true, 3: true}
	f.votes = map[tid.SiteID]wire.Vote{1: wire.VoteYes, 2: wire.VoteYes}
}

func gaveUp(m *Manager, f *family) { f.attempts = voteRetries }

func prepared(m *Manager, f *family) {
	f.ph, f.prepared, f.localVote = phPrepared, true, wire.VoteYes
	if f.opts.Protocol == wire.NonBlocking {
		f.nbState = wire.NBPrepared
	}
}

func replicated(m *Manager, f *family) { f.ph, f.nbState = phReplicated, wire.NBReplicated }

func promoted(m *Manager, f *family) {
	f.promoted = true
	f.statusResp = map[tid.SiteID]wire.NBState{1: f.nbState}
	f.abortIntents = make(map[tid.SiteID]bool)
}

// takingOver: a Paxos takeover leader at round 1 in the given stage,
// with site 2's phase-1b promise and site 3's 2b in hand.
func takingOver(stage uint8) setup {
	return func(m *Manager, f *family) {
		f.promoted, f.paxStage = true, stage
		f.paxBallot = paxosBallot(1, 1)
		f.pax1b = map[tid.SiteID][]wire.PaxosAccepted{2: nil}
		f.pax2b = map[tid.SiteID]bool{3: true}
	}
}

type stepRow struct {
	name    string
	fam     tid.FamilyID
	setup   setup            // a stalled family, whose timer then fires
	restore *recman.Analysis // or a log analysis handed to Restore
	want    []sent
	ph      phase
	nb      wire.NBState
	gone    bool // the step forgot the family
	delta   counts
}

func stepRows() []stepRow {
	var rows []stepRow
	for _, p := range wire.Protocols() {
		prepare, outcome := specs[p].prepare, wire.KCommit
		if p == wire.NonBlocking {
			outcome = wire.KNBOutcome
		}
		retry := stepRow{
			name: p.String() + "/coordinator in prepare retries", fam: ownFamily,
			setup: all(under(p, allSites...), collecting),
			want:  to(prepare, 3), ph: phPreparing, delta: counts{retransmits: 1},
		}
		giveUp := stepRow{
			name: p.String() + "/coordinator in prepare gives up", fam: ownFamily,
			setup: all(under(p, allSites...), collecting, gaveUp),
		}
		switch p {
		case wire.TwoPhase:
			giveUp.want, giveUp.gone = to(wire.KAbort, others...), true
		case wire.NonBlocking:
			// Change 4: an abort after the prepares is acknowledged.
			giveUp.want, giveUp.ph = to(wire.KNBOutcome, others...), phAborted
		case wire.Paxos:
			// Site 2 voted but its acceptor's 2b is missing: asked again.
			retry.want, retry.delta = to(prepare, others...), counts{retransmits: 2}
			// A quorum may hold every Yes: take over rather than abort.
			giveUp.want, giveUp.ph, giveUp.delta = to(wire.KPaxos1a, others...), phPreparing, counts{promotions: 1}
		}
		rows = append(rows, retry, giveUp,
			stepRow{
				name: p.String() + "/decided with acks owed", fam: ownFamily,
				setup: all(under(p, allSites...), func(m *Manager, f *family) {
					f.coord, f.ph, f.acksPending = true, phCommitted, map[tid.SiteID]bool{2: true}
				}),
				want: to(outcome, 2), ph: phCommitted, delta: counts{retransmits: 1},
			},
			stepRow{
				name: p.String() + "/orphan", fam: peerFamily, setup: under(p, allSites...),
				want: to(wire.KInquire, 3), ph: phActive, delta: counts{inquiries: 1},
			})
	}
	statusSweep := to(wire.KNBStatusReq, others...)
	rows = append(rows,
		stepRow{
			name: "2pc/prepared subordinate inquires", fam: peerFamily,
			setup: all(under(wire.TwoPhase), prepared),
			want:  to(wire.KInquire, 3), ph: phPrepared, delta: counts{inquiries: 1},
		},
		stepRow{
			name: "nb/prepared subordinate promotes", fam: peerFamily,
			setup: all(under(wire.NonBlocking), prepared),
			want:  statusSweep, ph: phPrepared, nb: wire.NBPrepared, delta: counts{retransmits: 2, promotions: 1},
		},
		stepRow{
			name: "nb/replicated subordinate promotes", fam: peerFamily,
			setup: all(under(wire.NonBlocking), prepared, replicated),
			want:  statusSweep, ph: phReplicated, nb: wire.NBReplicated, delta: counts{retransmits: 2, promotions: 1},
		},
		stepRow{
			name: "nb/promoted sweeps again", fam: peerFamily,
			setup: all(under(wire.NonBlocking), prepared, promoted),
			want:  statusSweep, ph: phPrepared, nb: wire.NBPrepared, delta: counts{retransmits: 2},
		},
		stepRow{
			name: "paxos/prepared subordinate re-casts", fam: peerFamily,
			setup: all(under(wire.Paxos, others...), prepared),
			want:  to(wire.KPaxos2a, others...), ph: phPrepared, delta: counts{retransmits: 1},
		},
		stepRow{
			name: "paxos/prepared subordinate re-cast twice takes over", fam: peerFamily,
			setup: all(under(wire.Paxos, others...), prepared, func(m *Manager, f *family) { f.attempts = 2 }),
			want:  to(wire.KPaxos1a, others...), ph: phPrepared, delta: counts{promotions: 1},
		},
		stepRow{
			name: "paxos/promoted awaiting promises", fam: peerFamily,
			setup: all(under(wire.Paxos, allSites...), prepared, takingOver(1)),
			want:  to(wire.KPaxos1a, 3), ph: phPrepared, delta: counts{retransmits: 1},
		},
		stepRow{
			name: "paxos/promoted awaiting 2b", fam: peerFamily,
			setup: all(under(wire.Paxos, allSites...), prepared, takingOver(2)),
			want:  to(wire.KPaxos2a, 2), ph: phPrepared, delta: counts{retransmits: 1},
		},
		stepRow{
			name: "paxos/promoted and outbid starts over", fam: peerFamily,
			setup: all(under(wire.Paxos, allSites...), prepared, takingOver(1), func(m *Manager, f *family) {
				f.paxNack = paxosBallot(2, 3)
			}),
			want: to(wire.KPaxos1a, others...), ph: phPrepared,
		},
	)

	// Restore: every shape recman.Analyze reports. Its first step is the
	// one the same stalled family's timer takes.
	inDoubt := func(d recman.InDoubt) *recman.Analysis {
		return &recman.Analysis{InDoubt: []recman.InDoubt{d}}
	}
	nb := recman.InDoubt{TID: tid.Top(peerFamily), Coordinator: 3, Protocol: wire.NonBlocking,
		Sites: allSites, CommitQuorum: 2, AbortQuorum: 2}
	nbReplicated := nb
	nbReplicated.Replicated = true
	nbReplicated.Votes = []wire.SiteVote{{Site: 1, Vote: wire.VoteYes}, {Site: 2, Vote: wire.VoteYes}, {Site: 3, Vote: wire.VoteYes}}
	nbPledged := nb
	nbPledged.AbortIntent = true
	nbCoordinator := nb
	nbCoordinator.TID, nbCoordinator.Coordinator = tid.Top(ownFamily), 1
	rows = append(rows,
		stepRow{
			name: "restore/2pc prepared", fam: peerFamily,
			restore: inDoubt(recman.InDoubt{TID: tid.Top(peerFamily), Coordinator: 3}),
			want:    to(wire.KInquire, 3), ph: phPrepared, delta: counts{inquiries: 1},
		},
		stepRow{
			name: "restore/nb prepared", fam: peerFamily, restore: inDoubt(nb),
			want: statusSweep, ph: phPrepared, nb: wire.NBPrepared, delta: counts{retransmits: 2, promotions: 1},
		},
		stepRow{
			name: "restore/nb replicated", fam: peerFamily, restore: inDoubt(nbReplicated),
			want: statusSweep, ph: phReplicated, nb: wire.NBReplicated, delta: counts{retransmits: 2, promotions: 1},
		},
		stepRow{
			// Change 4 across a crash: the pledge is durable, so the site
			// comes back in the abort quorum, not merely prepared.
			name: "restore/nb abort-intent", fam: peerFamily, restore: inDoubt(nbPledged),
			want: statusSweep, ph: phPrepared, nb: wire.NBAbortIntent, delta: counts{retransmits: 2, promotions: 1},
		},
		stepRow{
			name: "restore/nb coordinator", fam: ownFamily, restore: inDoubt(nbCoordinator),
			want: statusSweep, ph: phPrepared, nb: wire.NBPrepared, delta: counts{retransmits: 2, promotions: 1},
		},
		stepRow{
			name: "restore/paxos prepared RM", fam: peerFamily,
			restore: inDoubt(recman.InDoubt{TID: tid.Top(peerFamily), Coordinator: 3, Protocol: wire.Paxos,
				Prepared: true, Sites: allSites, Acceptors: others}),
			want: to(wire.KPaxos2a, others...), ph: phPrepared, delta: counts{retransmits: 1},
		},
		stepRow{
			name: "restore/paxos acceptor-only", fam: peerFamily,
			restore: inDoubt(recman.InDoubt{TID: tid.Top(peerFamily), Coordinator: 3, Protocol: wire.Paxos,
				Sites: allSites, Acceptors: allSites, Promised: paxosBallot(1, 2),
				Accepted: []wire.PaxosAccepted{{Site: 2, Vote: wire.VoteYes}}}),
			want: to(wire.KInquire, 3), ph: phActive, delta: counts{inquiries: 1},
		},
		stepRow{
			name: "restore/committed coordinator", fam: ownFamily,
			restore: &recman.Analysis{Resume: []recman.CoordResume{{TID: tid.Top(ownFamily), UpdateSubs: others}}},
			want:    to(wire.KCommit, others...), ph: phCommitted, delta: counts{retransmits: 2},
		},
	)
	return rows
}

func TestStalledFamilyStep(t *testing.T) {
	for _, row := range stepRows() {
		t.Run(row.name, func(t *testing.T) {
			r := newStepRig()
			var before, after Stats
			var ph phase
			var nb wire.NBState
			gone := false
			r.k.Go("test", func() {
				before = r.m.Stats()
				if row.restore != nil {
					r.m.Restore(row.restore, nil)
				} else {
					f, _ := r.m.lockOrCreateFamily(row.fam)
					row.setup(r.m, f)
					r.m.unlockFamily(f)
					r.m.queue.Put(func() { r.m.tick(row.fam) })
				}
				r.k.Sleep(10 * time.Millisecond) // the step, and no retry timer yet
				after = r.m.Stats()
				if f := r.m.lockFamily(row.fam); f != nil {
					ph, nb = f.ph, f.nbState
					r.m.unlockFamily(f)
				} else {
					gone = true
				}
				r.k.Stop()
			})
			r.k.RunUntil(time.Minute)
			if !slices.Equal(r.out, row.want) {
				t.Errorf("sent %v, want %v", r.out, row.want)
			}
			switch {
			case gone != row.gone:
				t.Errorf("family forgotten = %v, want %v", gone, row.gone)
			case !gone && (ph != row.ph || nb != row.nb):
				t.Errorf("left in phase %d / %v, want %d / %v", ph, nb, row.ph, row.nb)
			}
			got := counts{after.Retransmits - before.Retransmits, after.Inquiries - before.Inquiries,
				after.Promotions - before.Promotions}
			if got != row.delta {
				t.Errorf("counters moved %+v, want %+v", got, row.delta)
			}
		})
	}
}

// Restore's manager-wide half: new families begin above every counter
// the log names, and the resolved-outcome memory answers for the log's
// top-level outcomes (recman leaves a nested abort out of them).
func TestRestoreFloorAndResolvedOutcomes(t *testing.T) {
	r := newStepRig()
	committed, aborted, unknown := tid.MakeFamily(2, 5), tid.MakeFamily(2, 6), tid.MakeFamily(2, 7)
	r.k.Go("test", func() {
		defer r.k.Stop()
		a := &recman.Analysis{MaxLocalFamily: 7}
		a.Outcomes.Set(committed, wire.OutcomeCommit)
		a.Outcomes.Set(aborted, wire.OutcomeAbort)
		r.m.Restore(a, nil)
		t0, err := r.m.Begin()
		if err != nil {
			t.Errorf("Begin: %v", err)
		} else if got := t0.Family.Counter(); got != 7+familyFloorMargin+1 {
			t.Errorf("first family after recovery has counter %d, want %d", got, 7+familyFloorMargin+1)
		}
		for f, want := range map[tid.FamilyID]wire.Outcome{
			committed: wire.OutcomeCommit, aborted: wire.OutcomeAbort, unknown: wire.OutcomeUnknown,
		} {
			if got := r.m.OutcomeOf(f); got != want {
				t.Errorf("OutcomeOf(%v) = %v, want %v", f, got, want)
			}
		}
	})
	r.k.RunUntil(time.Minute)
}
