package chaos

import (
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"camelot/internal/trace"
	"camelot/internal/wal"
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

// f0Names maps two-phase commit's names to Paxos Commit's at F=0: the
// table camelot's TestPaxosF0EqualsTwoPhaseDelayBudget maps timelines
// through, applied here to injection-point labels.
var f0Names = map[string]string{
	wire.KPrepare.String(): wire.KPaxosPrepare.String(),
	wire.KVote.String():    wire.KPaxos2a.String(),
}

// f0PointName is what a pilot's point names, in F=0's terms: a
// datagram's kind (mapped) and link; a log write's records, mapped,
// without the commit decision's — a forced COMMIT under 2PC, a forced
// PAXOS-ACCEPT and a lazy COMMIT riding a later write under F=0, the
// named difference "accept is the commit point".
func f0PointName(p Point) string {
	switch p.Class {
	case ClassMsg:
		kind, link, _ := strings.Cut(p.Label, " ")
		if to, ok := f0Names[kind]; ok {
			kind = to
		}
		return kind + " " + link
	case ClassForce:
		var recs []string
		for _, r := range strings.Split(p.Label, "+") {
			if r == wal.RecCommit.String() || r == wal.RecPaxosAccept.String() {
				continue
			}
			if to, ok := f0Names[r]; ok {
				r = to
			}
			recs = append(recs, r)
		}
		return strings.Join(recs, "+")
	}
	return p.Label
}

// TestPaxosF0ReplaysTwoPhaseSweep replays the full two-phase sweep —
// every point and mode `camelot-chaos -protocol 2pc` runs — under
// Paxos Commit at F=0, each fault at its mapped point, and requires the
// same oracle verdict: zero violations and no deadlock, on both sides.
// The clients' outcomes may differ in one way only, named: a
// transaction two-phase commit commits, F=0 aborts. A prepared
// subordinate that hears nothing re-casts twice and then takes over,
// where 2PC's inquires; the takeover chooses Aborted for an instance
// whose voter is slow (restarting, or behind a cut), while 2PC's
// coordinator keeps re-asking for that vote and commits when it
// arrives — and the next transaction, begun that much sooner, may find
// the slow site still unreachable and abort too. Every other change of
// outcome fails, and so does this one no longer occurring.
func TestPaxosF0ReplaysTwoPhaseSweep(t *testing.T) {
	base := Schedule{Version: Version, Seed: 1, Sites: 3, Txns: 12}
	f0 := base
	f0.Protocol = wire.Paxos
	pilots := make([]*Result, 2)
	for i, s := range []Schedule{base, f0} {
		r, err := run(s, i == 1)
		if err != nil {
			t.Fatalf("pilot %v: %v", s.Protocol, err)
		}
		if r.Failed() {
			t.Fatalf("pilot %v: violations %v deadlock %q", s.Protocol, r.Violations, r.Deadlock)
		}
		pilots[i] = r
	}
	type addr struct {
		class string
		site  uint32
		index int
	}
	f0Points := map[addr]Point{}
	for _, q := range pilots[1].Points {
		f0Points[addr{q.Class, q.Site, q.Index}] = q
	}
	// A two-phase point is mapped when the F=0 pilot enumerates a point
	// at the same class, site and index that names the same thing; the
	// pilots agree point for point, so none is left unmapped.
	var faults []Fault
	var unmapped []string
	for _, p := range pilots[0].Points {
		q, ok := f0Points[addr{p.Class, p.Site, p.Index}]
		if !ok || f0PointName(q) != f0PointName(p) {
			unmapped = append(unmapped, p.Label)
			continue
		}
		delete(f0Points, addr{p.Class, p.Site, p.Index})
		for _, mode := range p.Modes() {
			faults = append(faults, Fault{Class: p.Class, Site: p.Site, Index: p.Index, Mode: mode})
		}
	}
	if len(unmapped) > 0 {
		t.Errorf("two-phase points with no F=0 counterpart: %q", unmapped)
	}

	// Each fault once under each protocol; the runs are independent
	// and deterministic, so they share out over a few workers.
	results := make([][2]*Result, len(faults))
	errs := make([]error, len(faults))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), 4) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				for side, s := range []Schedule{base, f0} {
					s.Faults = []Fault{faults[i]}
					if results[i][side], errs[i] = run(s, side == 1); errs[i] != nil {
						break
					}
				}
			}
		}()
	}
	for i := range faults {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	abortedByTakeover := 0
	for i, f := range faults {
		if errs[i] != nil {
			t.Fatalf("%s: %v", f, errs[i])
		}
		r2, rP := results[i][0], results[i][1]
		if r2.Failed() || rP.Failed() {
			t.Errorf("%s: 2pc violations %v deadlock %q; paxos F=0 violations %v deadlock %q",
				f, r2.Violations, r2.Deadlock, rP.Violations, rP.Deadlock)
		}
		if slices.Equal(r2.Outcomes, rP.Outcomes) {
			continue
		}
		for j := range r2.Outcomes {
			if r2.Outcomes[j] != rP.Outcomes[j] && (r2.Outcomes[j] != "committed" || rP.Outcomes[j] != "aborted") {
				t.Errorf("%s: transaction %d %s under 2pc, %s under paxos F=0: not the named takeover abort",
					f, j, r2.Outcomes[j], rP.Outcomes[j])
			}
		}
		abortedByTakeover++
	}
	if abortedByTakeover == 0 {
		t.Error("no run aborts under F=0 what 2pc commits: the named takeover abort no longer occurs")
	}
	// What the F=0 pilot enumerates beyond the mapped points is not a
	// fault of the two-phase sweep; it is listed, not replayed.
	var f0Only []string
	for _, q := range pilots[1].Points {
		if _, left := f0Points[addr{q.Class, q.Site, q.Index}]; left {
			f0Only = append(f0Only, q.Label)
		}
	}
	t.Logf("two-phase points: %d mapped, %d unmapped %q; F=0 points: %d, %d unmapped %q",
		len(pilots[0].Points)-len(unmapped), len(unmapped), unmapped, len(pilots[1].Points), len(f0Only), f0Only)
	t.Logf("%d faults under each protocol, %d runs with the pilots; %d runs with a transaction 2pc commits and F=0 aborts",
		len(faults), 2*len(faults)+2, abortedByTakeover)
}
