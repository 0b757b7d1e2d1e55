// Package exp is the experiment harness: one driver per table and
// figure of the paper's evaluation (§4), each rebuilding the
// workload, sweeping the parameters, and printing the same rows or
// series the paper reports. cmd/camelot-bench and the repository's
// benchmarks both call into this package.
package exp

import (
	"fmt"
	"time"

	"camelot/camelot"
	"camelot/internal/analysis"
	"camelot/internal/params"
	"camelot/internal/sim"
	"camelot/internal/stats"
)

// LatencySpec describes one latency measurement configuration: the
// "basic experiment" of §4.2/§4.3 — a minimal transaction performing
// one small operation at a single server at each site.
type LatencySpec struct {
	Subs     int
	Opts     camelot.Options
	ReadOnly bool
	Trials   int
	Params   params.Params
	Seed     int64
	// Gap, if positive, idles between trials; zero reproduces the
	// paper's back-to-back runs on the same data element.
	Gap time.Duration
}

// LatencyResult is one measured point.
type LatencyResult struct {
	Spec  LatencySpec
	Total stats.Sample // full transaction latency
	TM    stats.Sample // minus operation calls: "transaction management alone"
}

// MeasureLatency runs the minimal-transaction latency experiment in a
// fresh deterministic simulation.
func MeasureLatency(spec LatencySpec) *LatencyResult {
	if spec.Trials <= 0 {
		spec.Trials = 25
	}
	res := &LatencyResult{Spec: spec}
	k := sim.New(spec.Seed + 1)
	cfg := camelot.DefaultConfig()
	cfg.Params = spec.Params
	c := camelot.NewCluster(k, cfg)
	for id := camelot.SiteID(1); id <= camelot.SiteID(spec.Subs+1); id++ {
		c.AddNode(id).AddServer(serverName(id))
	}
	opCost := analysis.OpCost(spec.Params, spec.Subs)

	k.Go("experiment", func() {
		// Seed data so read transactions have something to read.
		if spec.ReadOnly {
			for id := camelot.SiteID(1); id <= camelot.SiteID(spec.Subs+1); id++ {
				tx, err := c.Node(id).Begin()
				if err != nil {
					return
				}
				tx.Write(serverName(id), "k", []byte("seed")) //nolint:errcheck
				tx.Commit()                                   //nolint:errcheck
			}
			k.Sleep(time.Second)
		}
		for trial := 0; trial < spec.Trials; trial++ {
			start := k.Now()
			tx, err := c.Node(1).Begin()
			if err != nil {
				break
			}
			ok := true
			for id := camelot.SiteID(1); id <= camelot.SiteID(spec.Subs+1); id++ {
				if spec.ReadOnly {
					_, err = tx.Read(serverName(id), "k")
				} else {
					err = tx.Write(serverName(id), "k", []byte{byte(trial)})
				}
				if err != nil {
					ok = false
					break
				}
			}
			if !ok {
				tx.Abort() //nolint:errcheck
				continue
			}
			if err := tx.CommitWith(spec.Opts); err != nil {
				continue
			}
			elapsed := time.Duration(k.Now() - start)
			res.Total.AddDuration(elapsed)
			res.TM.AddDuration(elapsed - opCost)
			// Trials run back-to-back, exactly as in the paper: "the
			// application used in the experiment locked and updated
			// the same data element during every transaction", so a
			// variant that retains locks longer (forced subordinate
			// commit record) delays the next trial's operation — the
			// §4.2 contention effect.
			if spec.Gap > 0 {
				k.Sleep(spec.Gap)
			}
		}
		k.Stop()
	})
	k.RunUntil(time.Duration(spec.Trials+20) * 10 * time.Second)
	return res
}

func serverName(id camelot.SiteID) string {
	return fmt.Sprintf("srv%d", id)
}

// Figure2Variants are the four §4.2 protocol variations, in the
// paper's order.
var Figure2Variants = []struct {
	Name     string
	Opts     camelot.Options
	ReadOnly bool
}{
	{"optimized write", camelot.Options{}, false},
	{"semi-optimized write", camelot.Options{ForceSubCommit: true}, false},
	{"unoptimized write", camelot.Options{ForceSubCommit: true, ImmediateAck: true}, false},
	{"read", camelot.Options{}, true},
}

// Figure2 reproduces "Latency of Transactions, Two-phase Commit":
// subordinates 0–3 for each protocol variant, with the derived
// transaction-management-only series.
func Figure2(p params.Params, trials int) *stats.Table {
	// The testbed's natural variance came from OS scheduling around
	// the coordinator's sends (§4.2); model it with per-send jitter.
	p.Jitter = 5 * time.Millisecond
	t := stats.NewTable("Figure 2: Latency of Transactions, Two-phase Commit (ms)",
		"variant", "subs", "mean", "stddev", "tm-only", "static-completion")
	for _, v := range Figure2Variants {
		for subs := 0; subs <= 3; subs++ {
			res := MeasureLatency(LatencySpec{
				Subs: subs, Opts: v.Opts, ReadOnly: v.ReadOnly,
				Trials: trials, Params: p, Seed: int64(subs),
			})
			var static analysis.Breakdown
			switch {
			case v.ReadOnly:
				static = analysis.TwoPhaseReadCompletion(p, subs)
			case subs == 0:
				static = analysis.LocalUpdateCompletion(p)
			default:
				static = analysis.TwoPhaseUpdateCompletion(p, subs)
			}
			t.AddRowf(v.Name, subs, res.Total.Mean(), res.Total.StdDev(),
				res.TM.Mean(), static.TotalMs())
		}
	}
	return t
}

// Figure3 reproduces "Latency of Transactions, Non-blocking Commit":
// subordinates 1–3, write and read.
func Figure3(p params.Params, trials int) *stats.Table {
	p.Jitter = 5 * time.Millisecond
	t := stats.NewTable("Figure 3: Latency of Transactions, Non-blocking Commit (ms)",
		"variant", "subs", "mean", "stddev", "tm-only", "static-completion")
	for _, ro := range []bool{false, true} {
		name := "write"
		if ro {
			name = "read"
		}
		for subs := 1; subs <= 3; subs++ {
			res := MeasureLatency(LatencySpec{
				Subs: subs, Opts: camelot.Options{Protocol: camelot.NonBlocking}, ReadOnly: ro,
				Trials: trials, Params: p, Seed: int64(10 + subs),
			})
			var static analysis.Breakdown
			if ro {
				static = analysis.NonBlockingReadCompletion(p, subs)
			} else {
				static = analysis.NonBlockingUpdateCompletion(p, subs)
			}
			t.AddRowf(name, subs, res.Total.Mean(), res.Total.StdDev(),
				res.TM.Mean(), static.TotalMs())
		}
	}
	return t
}

// Table3 reproduces the static-versus-empirical latency comparison
// for the three configurations the paper reports: local update,
// one-subordinate update, and local read.
func Table3(p params.Params, trials int) (string, *stats.Table) {
	breakdowns := analysis.LocalUpdateCompletion(p).String() +
		"\n" + analysis.TwoPhaseUpdateCompletion(p, 1).String() +
		"\n" + analysis.LocalReadCompletion(p).String()

	t := stats.NewTable("Table 3: static analysis vs. empirical measurement (ms)",
		"configuration", "static", "measured", "paper-static", "paper-measured")
	type row struct {
		name         string
		spec         LatencySpec
		static       analysis.Breakdown
		pStat, pMeas float64
	}
	rows := []row{
		{"local update", LatencySpec{Subs: 0, Trials: trials, Params: p},
			analysis.LocalUpdateCompletion(p), 24.5, 31},
		{"1-subordinate update", LatencySpec{Subs: 1, Trials: trials, Params: p},
			analysis.TwoPhaseUpdateCompletion(p, 1), 99.5, 110},
		{"local read", LatencySpec{Subs: 0, ReadOnly: true, Trials: trials, Params: p},
			analysis.LocalReadCompletion(p), 9.5, 13},
	}
	for _, r := range rows {
		res := MeasureLatency(r.spec)
		t.AddRowf(r.name, r.static.TotalMs(), res.Total.Mean(), r.pStat, r.pMeas)
	}
	return breakdowns, t
}
