package load

import (
	"os"
	"testing"
	"time"

	"camelot/internal/rt"
	"camelot/internal/wire"
)

// TestClusterLoadgenSmoke drives a low-rate open-loop run against a
// real 3-site loopback cluster (real UDP, real ctl TCP, on-disk WALs)
// end to end: every scheduled arrival completes, no infrastructure
// errors, the WAL and transport actually moved, and the connection
// pools dialed roughly the concurrency — not once per operation.
func TestClusterLoadgenSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a real cluster")
	}
	const sessions = 4
	c, err := StartCluster(ClusterConfig{
		Sites:    3,
		Shards:   6,
		Dir:      t.TempDir(),
		Sessions: sessions,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cfg := Config{
		Rate:     50,
		Duration: 500 * time.Millisecond,
		Sessions: sessions,
		Dist:     DistUniform,
		Seed:     1,
	}
	res, err := Run(rt.Real(), cfg, func(i int) error {
		return c.Update(i%sessions, i, wire.TwoPhase)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Done != res.Intended {
		t.Fatalf("done %d != intended %d", res.Done, res.Intended)
	}
	if res.Errs != 0 {
		t.Fatalf("%d/%d ops errored", res.Errs, res.Done)
	}
	if res.Hist.Count() == 0 || res.Hist.Percentile(50) <= 0 {
		t.Fatal("no latencies recorded")
	}
	appends, writes, sent, recv, _ := c.Counters()
	if appends == 0 || writes == 0 {
		t.Fatalf("WAL counters did not move: appends=%d deviceWrites=%d", appends, writes)
	}
	if sent == 0 || recv == 0 {
		t.Fatalf("transport counters did not move: sent=%d recv=%d", sent, recv)
	}
	// Pooling: 2 pools touched per txn, so the dial count must be near
	// the session count, far below one dial per operation.
	if d := c.Dials(); d > 4*sessions {
		t.Fatalf("pools dialed %d times for %d ops — pooling is not recycling", d, res.Done)
	}
}

// TestRunBenchRefusesUnknownProtocol: a protocol no node accepts used
// to boot a cluster per cell, report rows of goodput 0 and return nil.
// The sweep must refuse it before the first cluster exists — the good
// protocol listed first must not have run either.
func TestRunBenchRefusesUnknownProtocol(t *testing.T) {
	dir := t.TempDir()
	rep, err := RunBench(BenchConfig{
		Protocols: []wire.Protocol{wire.TwoPhase, 9},
		Rates:     []float64{50},
		Duration:  100 * time.Millisecond,
		Sites:     3,
		Dir:       dir,
	})
	if err == nil {
		t.Fatalf("RunBench with protocol 9 returned a report: %+v", rep)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("RunBench refused (%v) only after creating %v", err, entries)
	}
}
