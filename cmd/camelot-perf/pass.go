package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// Pauses around the recorded window. settle lets lazily written log
// records (25 ms flush interval) and delayed acks (10 ms) land before
// a counter snapshot, so that per-transaction counts are exact
// instead of carrying a boundary term.
const settle = 150 * time.Millisecond

// paced runs fn and then idles for twice as long as fn took. The
// sandbox punishes CPU bursts: one second of work on both processors
// slows the whole VM by 1.8x for the next ten seconds (README,
// "burst penalty"), which would land in this run's window or in the
// next run's. Everything heavier than a transaction — set-up,
// recovery, the layer probes — therefore runs after the window, at a
// third of the time.
func paced(fn func() error) error {
	begin := time.Now()
	err := fn()
	time.Sleep(2 * time.Since(begin))
	return err
}

// passConfig describes one complete run of one workload.
type passConfig struct {
	w       workload
	seed    int64
	warmup  time.Duration
	window  time.Duration
	setups  int // set-ups timed: the one the run uses, the rest after the window
	bounces int // close + reopen + Recover cycles timed
	scratch string

	// traced installs the timing store, samples the queues and
	// records spans for every other transaction of the window.
	traced bool
}

// passResult is everything a pass measured, before it is turned into
// named metrics.
type passResult struct {
	samples   []sample // the recorded window's, all sessions
	elapsed   time.Duration
	cpu       time.Duration
	delta     counters // the layers' own counters, over the recorded window
	memBefore runtime.MemStats
	memAfter  runtime.MemStats
	heapLive  uint64
	setup     []float64 // seconds
	recover   []float64 // seconds
	replayed  int64     // records in the WALs at recovery
	mismatch  int       // verifier findings, before and after the bounce
	dials     int

	// Traced passes only.
	spans       []span
	appendDurs  []time.Duration
	appendBytes int64
	queue       []int
	goroutines  int
}

func (r *passResult) count(o outcome) int {
	n := 0
	for _, s := range r.samples {
		if s.result == o {
			n++
		}
	}
	return n
}

// failed is every recorded transaction that did not commit, plus every
// verifier mismatch.
func (r *passResult) failed() int {
	return len(r.samples) - r.count(committed) + r.mismatch
}

func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// setUp boots a cluster in a fresh directory and preloads it.
func setUp(cfg passConfig, pre [][]string) (*cluster, time.Duration, error) {
	dir, err := os.MkdirTemp(cfg.scratch, "cluster-")
	if err != nil {
		return nil, 0, err
	}
	begin := time.Now()
	c := newCluster(dir, cfg.traced)
	_, err = c.start()
	if err == nil {
		err = c.preload(pre)
	}
	if err != nil {
		c.stop()
		os.RemoveAll(dir) //nolint:errcheck // scratch
		return nil, 0, err
	}
	return c, time.Since(begin), nil
}

// runPass sets the cluster up, warms it, records the window, verifies
// every acknowledged outcome, then bounces the cluster and verifies
// again from the recovered state.
func runPass(cfg passConfig) (*passResult, error) {
	res := &passResult{}
	smap := newShardMap()
	pre := preloadKeySet(smap)

	c, took, err := setUp(cfg, pre)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	res.setup = append(res.setup, took.Seconds())
	defer func() {
		c.stop()
		os.RemoveAll(c.dir) //nolint:errcheck // scratch
	}()

	sessions := make([]*session, numSessions)
	warm := make([][]op, numSessions)
	rec := make([][]op, numSessions)
	for i := range sessions {
		s, err := dialSession(i, cfg.w, c)
		if err != nil {
			return nil, err
		}
		defer s.close()
		sessions[i] = s
		rng := sessionRNG(cfg.seed, i)
		warm[i] = plan(cfg.w, rng, smap, pre, i, 0, cfg.warmup)
		rec[i] = plan(cfg.w, rng, smap, pre, i, len(warm[i]), cfg.window)
	}

	warmSamples, _ := runPhase(sessions, warm, false, time.Now())
	time.Sleep(settle)
	runtime.GC()

	before, err := c.snapshot()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&res.memBefore)
	epoch := time.Now()
	stopSampler := func() {}
	if cfg.traced {
		for _, l := range c.logs {
			l.start(epoch)
		}
		stopSampler = sampleQueue(c, &res.queue)
	}
	cpu0, err := cpuTime()
	if err != nil {
		return nil, err
	}
	recSamples, elapsed := runPhase(sessions, rec, cfg.traced, epoch)
	cpu1, err := cpuTime()
	if err != nil {
		return nil, err
	}
	stopSampler()
	res.elapsed, res.cpu = elapsed, cpu1-cpu0
	res.goroutines = runtime.NumGoroutine()
	runtime.ReadMemStats(&res.memAfter)
	time.Sleep(settle)
	after, err := c.snapshot()
	if err != nil {
		return nil, err
	}
	res.delta = after.sub(before)
	for _, l := range c.logs {
		l.stop()
		res.appendDurs = append(res.appendDurs, l.durs...)
		res.appendBytes += l.bytes
		res.spans = append(res.spans, l.spans...)
	}
	for i, s := range sessions {
		res.spans = append(res.spans, s.spans...)
		res.dials += s.dials
		s.close()
		res.samples = append(res.samples, recSamples[i]...)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.heapLive = ms.HeapAlloc

	check := func() {
		res.mismatch += verify(c, cfg.w, warm, warmSamples)
		res.mismatch += verify(c, cfg.w, rec, recSamples)
	}
	check()
	for s := range c.appends {
		res.replayed += c.appends[s].Load()
	}
	for i := 0; i < cfg.bounces; i++ {
		err := paced(func() error {
			c.stop()
			runtime.GC() // a restarted process recovers into an empty heap, not the last incarnation's garbage
			took, err := c.start()
			res.recover = append(res.recover, took.Seconds())
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
	}
	if cfg.bounces > 0 {
		check()
	}
	// Set-up takes a tenth of a second, so it is timed several times
	// and the median reported; the repeats are thrown away.
	for len(res.setup) < cfg.setups {
		err := paced(func() error {
			runtime.GC() // as the first set-up found it
			extra, took, err := setUp(cfg, pre)
			if err != nil {
				return err
			}
			res.setup = append(res.setup, took.Seconds())
			extra.stop()
			return os.RemoveAll(extra.dir)
		})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	return res, nil
}

// verify checks every transaction the client holds an answer for
// against the committed state at its keys' home sites: a committed
// write is present with the value written, an aborted one is absent.
// A failed transaction's fate is unknown and is not checked; it is
// already counted as failed. It returns the number of wrong keys.
func verify(c *cluster, w workload, plans [][]op, samples [][]sample) int {
	if w.read {
		return 0 // read values are checked as they arrive
	}
	wrong := 0
	for s, ops := range plans {
		for i, o := range ops {
			result := samples[s][i].result
			if result == failed {
				continue
			}
			for p, site := range o.parts {
				for _, key := range o.keys[p] {
					v, ok, err := c.nodes[site].PeekKey(key)
					good := err == nil && !ok
					if result == committed {
						good = err == nil && ok && bytes.Equal(v, valueFor(key, w.valSize))
					}
					if !good {
						wrong++
					}
				}
			}
		}
	}
	return wrong
}

// sampleQueue samples the transaction managers' summed input-queue
// depth at 1 kHz until the returned function is called.
func sampleQueue(c *cluster, into *[]int) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				*into = append(*into, c.queueDepth())
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}
