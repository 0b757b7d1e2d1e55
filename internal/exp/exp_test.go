package exp

import (
	"strings"
	"testing"
	"time"

	"camelot/camelot"
	"camelot/internal/params"
)

// These are shape tests: each experiment must reproduce the paper's
// qualitative findings (who wins, roughly by how much, where the
// knees are), which is the reproduction contract of EXPERIMENTS.md.

func TestLatencyLocalUpdateNearPaper(t *testing.T) {
	res := MeasureLatency(LatencySpec{Subs: 0, Trials: 10, Params: params.Paper()})
	if m := res.Total.Mean(); m < 25 || m > 38 {
		t.Errorf("local update latency = %.1f ms, want ≈31 (paper)", m)
	}
}

func TestLatencyOneSubOptimizedNearPaper(t *testing.T) {
	res := MeasureLatency(LatencySpec{Subs: 1, Trials: 10, Params: params.Paper()})
	if m := res.Total.Mean(); m < 95 || m > 125 {
		t.Errorf("1-sub optimized update = %.1f ms, want ≈110 (paper)", m)
	}
}

func TestLatencyReadBelowUpdate(t *testing.T) {
	read := MeasureLatency(LatencySpec{Subs: 1, ReadOnly: true, Trials: 10, Params: params.Paper()})
	update := MeasureLatency(LatencySpec{Subs: 1, Trials: 10, Params: params.Paper()})
	if read.Total.Mean() >= update.Total.Mean() {
		t.Errorf("read (%.1f) not below update (%.1f)", read.Total.Mean(), update.Total.Mean())
	}
}

func TestNonBlockingSlowerButLessThanTwice(t *testing.T) {
	p := params.Paper()
	tp := MeasureLatency(LatencySpec{Subs: 1, Trials: 10, Params: p})
	nb := MeasureLatency(LatencySpec{Subs: 1, Opts: camelot.Options{Protocol: camelot.NonBlocking},
		Trials: 10, Params: p})
	// "The cost of non-blocking commitment relative to two-phase
	// commitment seems somewhat less than twice as high."
	ratio := nb.Total.Mean() / tp.Total.Mean()
	if ratio <= 1.0 || ratio >= 2.0 {
		t.Errorf("NB/2PC ratio = %.2f, want within (1, 2)", ratio)
	}
}

func TestPaxosF0LatencyMatchesTwoPhase(t *testing.T) {
	// With F=0 the single acceptor is co-located with the coordinator,
	// so the fault-free path degenerates to two-phase commit's message
	// and force pattern; the latencies must agree to within noise.
	p := params.Paper()
	tp := MeasureLatency(LatencySpec{Subs: 1, Trials: 10, Params: p})
	px := MeasureLatency(LatencySpec{Subs: 1, Opts: camelot.Options{Protocol: camelot.Paxos},
		Trials: 10, Params: p})
	diff := px.Total.Mean() - tp.Total.Mean()
	if diff < -5 || diff > 5 {
		t.Errorf("paxos F=0 differs from 2PC by %.1f ms; F=0 must degenerate to two-phase", diff)
	}
}

func TestPaxosF1BetweenTwoPhaseAndTwice(t *testing.T) {
	// At F=1 the acceptor round (batched forced accept + 2b) sits on
	// the critical path, so Paxos Commit costs more than two-phase —
	// but, like the non-blocking protocol it replaces, less than twice.
	p := params.Paper()
	tp := MeasureLatency(LatencySpec{Subs: 1, Trials: 10, Params: p})
	px := MeasureLatency(LatencySpec{Subs: 1, Opts: camelot.Options{Protocol: camelot.Paxos, PaxosF: 1},
		Trials: 10, Params: p})
	ratio := px.Total.Mean() / tp.Total.Mean()
	if ratio <= 1.0 || ratio >= 2.0 {
		t.Errorf("paxos F=1 / 2PC ratio = %.2f, want within (1, 2)", ratio)
	}
}

func TestThreeWayTableHasAllVariants(t *testing.T) {
	s := ThreeWayCommit(params.Paper(), 4).String()
	for _, v := range []string{"two-phase", "paxos F=0", "paxos F=1", "non-blocking"} {
		if !strings.Contains(s, v) {
			t.Errorf("three-way table missing %q:\n%s", v, s)
		}
	}
}

func TestNonBlockingReadMatchesTwoPhaseRead(t *testing.T) {
	p := params.Paper()
	tp := MeasureLatency(LatencySpec{Subs: 1, ReadOnly: true, Trials: 10, Params: p})
	nb := MeasureLatency(LatencySpec{Subs: 1, ReadOnly: true,
		Opts: camelot.Options{Protocol: camelot.NonBlocking}, Trials: 10, Params: p})
	diff := nb.Total.Mean() - tp.Total.Mean()
	if diff < -3 || diff > 3 {
		t.Errorf("NB read differs from 2PC read by %.1f ms; the read-only path must be shared", diff)
	}
}

func TestThroughputSingleThreadSaturatesEarly(t *testing.T) {
	p := params.VAX()
	one := MeasureThroughput(ThroughputSpec{Pairs: 4, Threads: 1, GroupCommit: false,
		ReadOnly: true, Params: p, Window: 10 * time.Second})
	five := MeasureThroughput(ThroughputSpec{Pairs: 4, Threads: 5, GroupCommit: false,
		ReadOnly: true, Params: p, Window: 10 * time.Second})
	if five.TPS <= one.TPS {
		t.Errorf("5 threads (%.1f TPS) not above 1 thread (%.1f TPS) at 4 pairs", five.TPS, one.TPS)
	}
}

func TestThroughputTwentyThreadsLikeFive(t *testing.T) {
	// "The numbers for the 20-thread tests are roughly the same as
	// those for the 5-thread tests."
	p := params.VAX()
	five := MeasureThroughput(ThroughputSpec{Pairs: 4, Threads: 5, GroupCommit: false,
		ReadOnly: true, Params: p, Window: 10 * time.Second})
	twenty := MeasureThroughput(ThroughputSpec{Pairs: 4, Threads: 20, GroupCommit: false,
		ReadOnly: true, Params: p, Window: 10 * time.Second})
	ratio := twenty.TPS / five.TPS
	if ratio < 0.85 || ratio > 1.15 {
		t.Errorf("20-thread/5-thread ratio = %.2f, want ≈1", ratio)
	}
}

func TestGroupCommitRaisesUpdateThroughput(t *testing.T) {
	p := params.VAX()
	off := MeasureThroughput(ThroughputSpec{Pairs: 4, Threads: 20, GroupCommit: false,
		Params: p, Window: 10 * time.Second})
	on := MeasureThroughput(ThroughputSpec{Pairs: 4, Threads: 20, GroupCommit: true,
		Params: p, Window: 10 * time.Second})
	if on.TPS <= off.TPS {
		t.Errorf("group commit (%.1f TPS) not above plain logging (%.1f TPS)", on.TPS, off.TPS)
	}
}

func TestReadsFasterThanUpdates(t *testing.T) {
	p := params.VAX()
	upd := MeasureThroughput(ThroughputSpec{Pairs: 4, Threads: 20, GroupCommit: true,
		Params: p, Window: 10 * time.Second})
	read := MeasureThroughput(ThroughputSpec{Pairs: 4, Threads: 20, GroupCommit: true,
		ReadOnly: true, Params: p, Window: 10 * time.Second})
	if read.TPS <= upd.TPS {
		t.Errorf("reads (%.1f TPS) not above updates (%.1f TPS)", read.TPS, upd.TPS)
	}
}

func TestMulticastVarianceTable(t *testing.T) {
	tbl := MulticastVariance(params.Paper(), 30).String()
	if !strings.Contains(tbl, "multicast") || !strings.Contains(tbl, "serial unicast") {
		t.Fatalf("table missing rows:\n%s", tbl)
	}
}

func TestRPCBreakdownMeasuredNearModel(t *testing.T) {
	tbl := RPCBreakdown(params.Paper(), 50)
	s := tbl.String()
	if !strings.Contains(s, "28.5") {
		t.Errorf("breakdown does not show the 28.5 ms total:\n%s", s)
	}
}

func TestFigure1MentionsAllElevenSteps(t *testing.T) {
	out := Figure1(params.Paper())
	for i := 1; i <= 11; i++ {
		if !strings.Contains(out, itoa(i)+". ") && !strings.Contains(out, " "+itoa(i)+".") {
			t.Errorf("step %d missing from Figure 1 narration", i)
		}
	}
	if !strings.Contains(out, "measured end-to-end") {
		t.Error("live measurement missing from Figure 1")
	}
}

func TestTable2MeasuredMatchesConfigured(t *testing.T) {
	s := Table2(params.Paper()).String()
	// The force row must show 15.0 in both columns.
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, "log force") && strings.Count(line, "15.0") != 2 {
			t.Errorf("log force row mismatch: %q", line)
		}
	}
}

func TestTable1Runs(t *testing.T) {
	s := Table1().String()
	if !strings.Contains(s, "procedure call") || !strings.Contains(s, "getpid") {
		t.Errorf("Table 1 incomplete:\n%s", s)
	}
}

func TestLockContentionUnoptimizedWaits(t *testing.T) {
	s := LockContention(params.Paper(), 8)
	str := s.String()
	if !strings.Contains(str, "unoptimized, back-to-back") {
		t.Fatalf("table missing rows:\n%s", str)
	}
}
