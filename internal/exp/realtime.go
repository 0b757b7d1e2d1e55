package exp

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"camelot/camelot"
	"camelot/internal/params"
	"camelot/internal/rt"
	"camelot/internal/stats"
)

// This experiment has no analogue in the paper's tables: it measures
// this reproduction itself. The §3.4 two-level locking refactor
// claims that independent transaction families no longer serialize on
// one manager-wide mutex; the only honest way to check that is to run
// many families on the real Go runtime and watch throughput rise with
// the number of OS-level processors. Everything else in this package
// runs on the simulation kernel, where concurrency is cooperative and
// scaling cannot be observed.

// RealtimeScalingResult is one measured point of the scaling sweep.
type RealtimeScalingResult struct {
	Procs     int           // GOMAXPROCS during the run
	Workers   int           // concurrent application loops (≈ families in flight)
	Committed int           // transactions committed inside the window
	Window    time.Duration // measurement window (wall clock)
	TPS       float64
}

// scalingWork burns a calibrated slice of CPU, standing in for the
// application and server processing that accompanies each transaction
// (the paper's application/server "pairs" did real work too). It is
// pure compute so the speedup ceiling is set by GOMAXPROCS, not I/O.
func scalingWork(seed uint64) []byte {
	h := seed*0x9E3779B97F4A7C15 + 1
	for i := 0; i < 50_000; i++ {
		h ^= h << 13
		h ^= h >> 7
		h ^= h << 17
	}
	var out [8]byte
	for i := range out {
		out[i] = byte(h >> (8 * i))
	}
	return out[:]
}

// MeasureRealtimeScaling runs a closed-loop update workload — workers
// independent application loops, each with its own data server and
// one family in flight at a time — on the ordinary Go runtime with
// GOMAXPROCS fixed at procs, and reports committed throughput.
func MeasureRealtimeScaling(procs, workers int, window time.Duration) RealtimeScalingResult {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)

	r := rt.Real()
	c := camelot.NewCluster(r, camelot.Config{
		Params:           params.Params{}, // measure the host, not the simulated testbed
		Threads:          workers + 2,
		LogFlushInterval: time.Millisecond,
		LockTimeout:      time.Second,
		RetryInterval:    100 * time.Millisecond,
		InquireInterval:  200 * time.Millisecond,
		PromotionTimeout: 200 * time.Millisecond,
		AckFlushInterval: 50 * time.Millisecond,
		RPCTimeout:       time.Second,
	})
	n := c.AddNode(1)
	for w := 0; w < workers; w++ {
		n.AddServer(fmt.Sprintf("pair%d", w))
	}

	var stop atomic.Bool
	var committed atomic.Int64
	wg := rt.NewWaitGroup(r)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		w := w
		r.Go(fmt.Sprintf("scaling-worker%d", w), func() {
			defer wg.Done()
			srv := fmt.Sprintf("pair%d", w)
			for i := 0; !stop.Load(); i++ {
				tx, err := n.Begin()
				if err != nil {
					return
				}
				key := fmt.Sprintf("k%d", i%64)
				if err := tx.Write(srv, key, scalingWork(uint64(w)<<32|uint64(i))); err != nil {
					tx.Abort() //nolint:errcheck
					continue
				}
				if err := tx.Commit(); err == nil {
					committed.Add(1)
				}
			}
		})
	}

	r.Sleep(window / 4) // warm up: steady state before counting
	committed.Store(0)
	r.Sleep(window)
	total := committed.Load()
	stop.Store(true)
	wg.Wait()
	n.Crash() // stops the manager threads and the log flusher

	return RealtimeScalingResult{
		Procs:     procs,
		Workers:   workers,
		Committed: int(total),
		Window:    window,
		TPS:       float64(total) / window.Seconds(),
	}
}

// RealtimeScaling sweeps GOMAXPROCS over procs (entries above
// runtime.NumCPU() are skipped) and tabulates throughput and the
// speedup relative to the first measured point.
func RealtimeScaling(procs []int, workers int, window time.Duration) *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("R10: Real-Runtime Family Scaling (%d workers, %s window)", workers, window),
		"GOMAXPROCS", "TPS", "speedup")
	base := 0.0
	for _, p := range procs {
		if p > runtime.NumCPU() {
			continue
		}
		res := MeasureRealtimeScaling(p, workers, window)
		if base == 0 {
			base = res.TPS
		}
		speedup := "1.00x"
		if base > 0 {
			speedup = fmt.Sprintf("%.2fx", res.TPS/base)
		}
		t.AddRowf(fmt.Sprintf("%d", p), res.TPS, speedup)
	}
	return t
}
