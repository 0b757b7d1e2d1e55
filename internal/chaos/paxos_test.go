package chaos

import (
	"strings"
	"testing"
	"time"

	"camelot/internal/trace"
	"camelot/internal/wire"
)

// paxosPilot runs the fault-free Paxos schedule once.
func paxosPilot(t *testing.T) *Result {
	t.Helper()
	r, err := Run(Schedule{Version: Version, Seed: 1, Sites: 3, Protocol: wire.Paxos, Txns: 8})
	if err != nil {
		t.Fatalf("pilot: %v", err)
	}
	if r.Failed() {
		t.Fatalf("fault-free paxos pilot failed: %v %v", r.Violations, r.Deadlock)
	}
	return r
}

// TestPaxosPilotEnumeratesAcceptorPoints: the injection-point
// enumeration must reach the Paxos-specific surfaces — the acceptors'
// batched accepted-record forces and the 2a/2b vote datagrams —
// because a sweep that never lands a fault on them proves nothing
// about the protocol.
func TestPaxosPilotEnumeratesAcceptorPoints(t *testing.T) {
	r := paxosPilot(t)
	sawForce := map[string]bool{}
	sawMsg := map[string]bool{}
	for _, p := range r.Points {
		switch p.Class {
		case ClassForce:
			sawForce[p.Label] = true
		case ClassMsg:
			sawMsg[strings.Fields(p.Label)[0]] = true
		}
	}
	for _, label := range []string{"PAXOS-PREPARE", "PAXOS-ACCEPT"} {
		if !sawForce[label] {
			t.Errorf("no force point labeled %s", label)
		}
	}
	for _, kind := range []string{"PAXOS-PREPARE", "PAXOS-2A", "PAXOS-2B"} {
		if !sawMsg[kind] {
			t.Errorf("no msg point carrying %s", kind)
		}
	}
	for _, o := range r.Outcomes {
		if o != "committed" {
			t.Errorf("fault-free outcome %q, want committed", o)
		}
	}
}

// TestPaxosSweepBoundedZeroViolations: the seeded single-fault sweep
// over the Paxos workload must come back clean. It is the Paxos
// iteration of TestSweepBoundedZeroViolations under a name `make
// paxos` (-run TestPaxos) selects.
func TestPaxosSweepBoundedZeroViolations(t *testing.T) {
	maxPoints := 12
	if testing.Short() {
		maxPoints = 4
	}
	rep, err := Sweep(Options{Sites: 3, Protocol: wire.Paxos, Seed: 1, Txns: 6, MaxPoints: maxPoints}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) != 0 {
		enc, _ := EncodeReport(rep)
		t.Errorf("%d failing schedule(s):\n%s", len(rep.Failures), enc)
	}
	if rep.PointsTotal == 0 || rep.PointsRun == 0 {
		t.Errorf("no points enumerated (%d) or run (%d)", rep.PointsTotal, rep.PointsRun)
	}
}

// TestPaxosNonBlockingUnderSingleSiteCrash pins the protocol's
// headline property at F=1: crashing any single site — the
// coordinator included, mid-commit — must leave every workload
// transaction resolvable. For each site the test picks that site's
// first Paxos protocol datagram from the pilot enumeration and
// crashes the sender there, then requires the oracle-checked run to
// finish without violations or deadlock.
func TestPaxosNonBlockingUnderSingleSiteCrash(t *testing.T) {
	pilotRun := paxosPilot(t)

	// First Paxos-datagram index per sending site.
	firstBySender := map[string]int{}
	for _, p := range pilotRun.Points {
		if p.Class != ClassMsg || !strings.HasPrefix(p.Label, "PAXOS-") {
			continue
		}
		fields := strings.Fields(p.Label) // "KIND from→to"
		sender := strings.Split(fields[1], "→")[0]
		if _, ok := firstBySender[sender]; !ok {
			firstBySender[sender] = p.Index
		}
	}
	for _, sender := range []string{"1", "2", "3"} {
		idx, ok := firstBySender[sender]
		if !ok {
			t.Fatalf("pilot enumerated no Paxos datagram sent by site %s", sender)
		}
		s := Schedule{
			Version: Version, Seed: 1, Sites: 3, Protocol: wire.Paxos, Txns: 6,
			Faults: []Fault{{Class: ClassMsg, Index: idx, Mode: ModeCrash}},
		}
		r, err := Run(s)
		if err != nil {
			t.Fatalf("site %s crash: %v", sender, err)
		}
		if r.Failed() {
			t.Errorf("site %s crash: violations %v deadlock %q", sender, r.Violations, r.Deadlock)
		}
	}
}

// combinedBlock ends the label of the device write a last voter's fold
// produces: prepared and accepted records in one block (DESIGN.md §10).
const combinedBlock = "PAXOS-PREPARE+PAXOS-ACCEPT"

// paxosPairPilot is the fault-free Paxos schedule over two sites, the
// shape in which the sole subordinate is always the last voter.
func paxosPairPilot(t *testing.T) (Schedule, *Result) {
	t.Helper()
	s := Schedule{Version: Version, Seed: 1, Sites: 2, Protocol: wire.Paxos, Txns: 6}
	r, err := Run(s)
	if err != nil {
		t.Fatalf("pilot: %v", err)
	}
	if r.Failed() {
		t.Fatalf("fault-free two-site paxos pilot failed: %v %v", r.Violations, r.Deadlock)
	}
	return s, r
}

// TestPaxosTornCombinedBlockRecoversPrepared cuts the last voter's
// combined block between its two records: the prepared record
// survives, the accepted record does not, and nothing in the block was
// ever acknowledged. The site must come back as "prepared, not yet
// accepted" — re-cast its vote or take over — and the oracle must find
// every transaction atomic and durable. The whole-block crash and the
// torn first record ride along at the same points.
func TestPaxosTornCombinedBlockRecoversPrepared(t *testing.T) {
	s, pilot := paxosPairPilot(t)
	hit := 0
	for _, p := range pilot.Points {
		if p.Class != ClassForce || p.Site != 2 || !strings.HasSuffix(p.Label, combinedBlock) {
			continue
		}
		if hit++; hit > 2 {
			break
		}
		for _, mode := range []string{ModeTornLast, ModeTorn, ModeCrash} {
			s.Faults = []Fault{{Class: ClassForce, Site: p.Site, Index: p.Index, Mode: mode}}
			r, err := Run(s)
			if err != nil {
				t.Fatalf("%v: %v", s.Faults[0], err)
			}
			if r.Failed() {
				t.Errorf("%v: violations %v deadlock %q", s.Faults[0], r.Violations, r.Deadlock)
			}
		}
	}
	if hit == 0 {
		t.Fatal("pilot enumerated no combined prepared+accepted block at site 2: the last-voter fold did not run")
	}
}

// TestPaxosLostFolded2bNoViolation drops the last voter's 2b — after
// the fold, everything the leader would have heard from it — and
// requires the run to finish clean with the transaction committed: the
// retried vote request makes the voter re-cast.
func TestPaxosLostFolded2bNoViolation(t *testing.T) {
	s, pilot := paxosPairPilot(t)
	for _, p := range pilot.Points {
		if p.Class != ClassMsg || p.Label != "PAXOS-2B 2→1" {
			continue
		}
		s.Faults = []Fault{{Class: ClassMsg, Index: p.Index, Mode: ModeDrop}}
		r, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if r.Failed() {
			t.Errorf("%v: violations %v deadlock %q", s.Faults[0], r.Violations, r.Deadlock)
		}
		for i, o := range r.Outcomes {
			if o != "committed" {
				t.Errorf("%v: transaction %d %s, want committed", s.Faults[0], i, o)
			}
		}
		return
	}
	t.Fatal("pilot enumerated no 2b from site 2 to site 1")
}

// TestPaxosTakeoverLeaderDrainsItsAcks kills the leader as it sends its
// first COMMIT: the acceptors hold every vote, nobody has the outcome.
// A survivor takes over, decides and tells the others — the restarted
// leader among them — and must end the transaction when the last of
// them has acknowledged. The oracle cannot see a leader that never
// forgets (its outcome is right, only re-sent forever), so beside the
// oracle's verdict the trace must show the outcome retries stopped long
// before the run did.
func TestPaxosTakeoverLeaderDrainsItsAcks(t *testing.T) {
	pilot := paxosPilot(t)
	s := pilot.Schedule
	for _, p := range pilot.Points {
		if p.Class == ClassMsg && strings.HasPrefix(p.Label, "COMMIT 1→") {
			s.Faults = []Fault{{Class: ClassMsg, Index: p.Index, Mode: ModeCrash}}
			break
		}
	}
	if len(s.Faults) == 0 {
		t.Fatal("pilot enumerated no COMMIT sent by site 1")
	}
	e := &engine{sched: s, msgFaults: make(map[int]Fault)}
	r, err := e.run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed() {
		t.Errorf("%v: violations %v deadlock %q", s.Faults[0], r.Violations, r.Deadlock)
	}
	// The oracle's second pass bounces every site five virtual seconds
	// before the end, which would restart a stuck notify phase as an
	// ordinary coordinator's; the five seconds before that are the
	// settled cluster.
	settled := e.k.Now() - 10*time.Second
	takeovers, late := 0, 0
	for _, ev := range e.c.Trace().Events() {
		switch {
		case ev.Kind == trace.EvMsgSend && ev.Info == wire.KPaxos1a.String():
			takeovers++
		case ev.Kind == trace.EvRetry && ev.Info == "outcome" && ev.At > settled:
			late++
		}
	}
	if takeovers == 0 {
		t.Fatal("no survivor took over: the fault did not land after the acceptor quorum and before the outcome")
	}
	if late != 0 {
		t.Errorf("%d outcome retry rounds in the last ten virtual seconds: a leader is still waiting for acks it was sent", late)
	}
}
