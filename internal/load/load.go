// Package load is the open-loop load generator: it drives a target
// operation rate against a cluster regardless of how fast the cluster
// answers, and reports latency from each operation's *intended*
// arrival time.
//
// Open-loop versus closed-loop is the difference between measuring a
// system and measuring a conversation with it. A closed-loop driver
// (N workers, each issuing its next request when the previous one
// returns) lets the system set the pace: when the system slows down,
// the offered load politely drops, and the latency numbers describe
// only the requests the system deigned to accept — the classic
// coordinated-omission blind spot. An open-loop driver fixes the
// arrival schedule up front (seeded Poisson or uniform) and charges
// every queueing delay to the operation that suffered it: if an
// arrival was due at t but the session got to it at t+40ms, those
// 40ms are part of its latency. Under overload the percentiles grow
// without bound, which is exactly the honest signal (paper §4.4
// measures throughput at saturation; our tail tables show the
// approach to it).
//
// Latencies go into Hist — fixed buckets, bounded memory, no allocation
// however long the run — which is deliberately not merged with
// internal/stats' Sample: that one keeps every observation for the exact
// mean ± σ of the golden-pinned simulation tables, which bucketing
// would move.
package load

import (
	"strconv"
	"sync/atomic"
	"time"

	"camelot/internal/rt"
)

// Config parameterizes one open-loop run.
type Config struct {
	// Rate is the target offered rate, operations/second.
	Rate float64
	// Duration is how long arrivals are scheduled for (the run itself
	// lasts until the last scheduled operation completes).
	Duration time.Duration
	// Sessions is the number of concurrent client sessions the
	// schedule is striped over: session k executes arrivals k, k+S,
	// 2S+k… in order. Sessions bounds concurrency — if every session
	// is busy when an arrival comes due, the delay is charged to the
	// operation's latency, never silently dropped.
	Sessions int
	// Dist is the arrival distribution: DistPoisson (default) or
	// DistUniform.
	Dist string
	// Seed fixes the arrival schedule (and nothing else).
	Seed int64
}

// Result is what one run measured.
type Result struct {
	// Intended is the number of scheduled arrivals (offered work).
	Intended int
	// Done counts operations that completed, successfully or not.
	Done int
	// Errs counts operations whose op function returned an error.
	Errs int
	// Elapsed is start to last-completion.
	Elapsed time.Duration
	// Hist holds per-op latency measured from intended arrival.
	Hist *Hist
}

// Offered is the rate the generator actually asked for, ops/second
// over the configured duration.
func (res *Result) Offered(cfg Config) float64 {
	if cfg.Duration <= 0 {
		return 0
	}
	return float64(res.Intended) / cfg.Duration.Seconds()
}

// Goodput is successful completions per second of elapsed run time.
func (res *Result) Goodput() float64 {
	if res.Elapsed <= 0 {
		return 0
	}
	return float64(res.Done-res.Errs) / res.Elapsed.Seconds()
}

// Run executes one open-loop run on r: it draws the arrival schedule,
// stripes it over cfg.Sessions concurrent sessions, and calls
// op(index) once per arrival, where index is the arrival's position
// in the schedule. op's error is counted, not interpreted. Run works
// identically on the real runtime and the simulation kernel — the
// deterministic tests pin its pacing and coordinated-omission
// accounting on sim virtual time.
func Run(r rt.Runtime, cfg Config, op func(index int) error) (*Result, error) {
	if cfg.Dist == "" {
		cfg.Dist = DistPoisson
	}
	if cfg.Sessions <= 0 {
		cfg.Sessions = 1
	}
	arrivals, err := Arrivals(cfg.Dist, cfg.Seed, cfg.Rate, cfg.Duration)
	if err != nil {
		return nil, err
	}

	var errs atomic.Int64
	hists := make([]*Hist, cfg.Sessions)
	start := r.Now()
	wg := rt.NewWaitGroup(r)
	wg.Add(cfg.Sessions)
	for s := 0; s < cfg.Sessions; s++ {
		s := s
		h := &Hist{}
		hists[s] = h
		r.Go(nameSession(s), func() {
			defer wg.Done()
			for idx := s; idx < len(arrivals); idx += cfg.Sessions {
				due := start + arrivals[idx]
				if wait := due - r.Now(); wait > 0 {
					r.Sleep(wait)
				}
				// If we are late, run immediately: the schedule is
				// the contract, and the lateness lands in the
				// latency below (coordinated omission, avoided).
				if err := op(idx); err != nil {
					errs.Add(1)
				}
				h.Add(r.Now() - due)
			}
		})
	}
	wg.Wait()

	total := &Hist{}
	for _, h := range hists {
		total.Merge(h)
	}
	return &Result{
		Intended: len(arrivals),
		Done:     int(total.Count()),
		Errs:     int(errs.Load()),
		Elapsed:  r.Now() - start,
		Hist:     total,
	}, nil
}

// nameSession labels a session thread for traces and deadlock
// reports without fmt on the spawn path.
func nameSession(s int) string {
	return "load-session-" + strconv.Itoa(s)
}
