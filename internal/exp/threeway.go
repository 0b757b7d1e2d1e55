package exp

import (
	"time"

	"camelot/camelot"
	"camelot/internal/params"
	"camelot/internal/stats"
)

// ThreeWayVariants are the protocol configurations of the three-way
// commit comparison: the paper's two protocols plus Paxos Commit at
// F=0 (degenerate, one co-located acceptor) and F=1 (three acceptors,
// tolerating one crash).
var ThreeWayVariants = []struct {
	Name string
	Opts camelot.Options
}{
	{"two-phase", camelot.Options{}},
	{"paxos F=0", camelot.Options{Protocol: camelot.Paxos}},
	{"paxos F=1", camelot.Options{Protocol: camelot.Paxos, PaxosF: 1}},
	{"non-blocking", camelot.Options{Protocol: camelot.NonBlocking}},
}

// ThreeWayCommit extends the Figure 2/3 latency experiment to the
// third protocol: update-transaction latency at 1–3 subordinates for
// two-phase commit, Paxos Commit (F=0 and F=1), and non-blocking
// commit, same minimal workload and jitter model as the paper's
// figures. The expected ordering is pinned by tests: F=0 matches
// two-phase (its fault-free path is the same message and force
// pattern), while F=1 pays the acceptor round and lands between
// two-phase and roughly the non-blocking protocol's cost.
func ThreeWayCommit(p params.Params, trials int) *stats.Table {
	p.Jitter = 5 * time.Millisecond
	t := stats.NewTable("Three-way commit latency: 2PC vs Paxos Commit vs non-blocking (ms)",
		"variant", "subs", "mean", "stddev", "tm-only")
	for _, v := range ThreeWayVariants {
		for subs := 1; subs <= 3; subs++ {
			res := MeasureLatency(LatencySpec{
				Subs: subs, Opts: v.Opts,
				Trials: trials, Params: p, Seed: int64(40 + subs),
			})
			t.AddRowf(v.Name, subs, res.Total.Mean(), res.Total.StdDev(),
				res.TM.Mean())
		}
	}
	return t
}
