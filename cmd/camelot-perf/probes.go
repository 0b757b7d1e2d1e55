package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"camelot/camelot"
	"camelot/internal/ctl"
	"camelot/internal/lockmgr"
	"camelot/internal/rt"
	"camelot/internal/shardmap"
	"camelot/internal/tid"
	"camelot/internal/transport"
	"camelot/internal/wal"
	"camelot/internal/wire"
)

// The probes measure each layer alone, on the real substrate and
// through its public surface, so that a per-layer change can be told
// from a change in how the layers are combined. Iteration counts are
// fixed and sized for roughly 0.1–0.3 s each on the sandbox: together
// they must fit in a traced benchmark run.

// timeEach runs fn n times and returns each call's duration.
func timeEach(n int, fn func() error) ([]time.Duration, error) {
	out := make([]time.Duration, n)
	for i := range out {
		begin := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		out[i] = time.Since(begin)
	}
	return out, nil
}

// nsPerOp is the mean time of n back-to-back calls; for operations
// too short to time one by one.
func nsPerOp(n int, fn func(i int)) float64 {
	begin := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(begin).Nanoseconds()) / float64(n)
}

func p50us(ds []time.Duration) float64 { return percentile(in(time.Microsecond, ds), 50) }

// runProbes runs every isolated probe. scratch is the benchmark's
// (memory-backed, when possible) directory; device is a directory on
// the real disk for the raw fsync probe.
func runProbes(m metrics, scratch, device string) error {
	probes := []func(metrics, string) error{
		probeNode, probeLogForce, probeTransport, probeWire, probeLocks,
		func(m metrics, _ string) error {
			us, err := fsyncProbe(device, 200)
			m.set("wal.filestore_fsync_us", us, "us")
			return err
		},
	}
	for _, probe := range probes {
		if err := paced(func() error { return probe(m, scratch) }); err != nil {
			return err
		}
	}
	return nil
}

// fsyncProbe is the median time of a raw 128-byte FileStore.Append
// (write + fsync) in dir.
func fsyncProbe(dir string, n int) (float64, error) {
	path := filepath.Join(dir, fmt.Sprintf("camelot-perf-fsync-%d.wal", os.Getpid()))
	s, err := wal.OpenFileStore(path)
	if err != nil {
		return 0, err
	}
	defer os.Remove(path) //nolint:errcheck // scratch
	defer s.Close()       //nolint:errcheck // scratch
	block := make([]byte, 128)
	ds, err := timeEach(n, func() error { return s.Append(block) })
	if err != nil {
		return 0, err
	}
	return p50us(ds), nil
}

// probeNode measures the ctl layer's floor (a ping carries no work)
// and a local commit with neither ctl nor network: a one-site node
// driven directly.
func probeNode(m metrics, scratch string) error {
	sm, err := shardmap.New(1, 1, []tid.SiteID{1})
	if err != nil {
		return err
	}
	cfg := camelot.DefaultRealConfig(1)
	cfg.WALPath = filepath.Join(scratch, "probe-node.wal")
	cfg.ShardMap = sm
	n, err := camelot.StartRealNode(cfg)
	if err != nil {
		return err
	}
	defer os.Remove(cfg.WALPath) //nolint:errcheck // scratch
	defer n.Close()              //nolint:errcheck // teardown
	if err := n.Recover(); err != nil {
		return err
	}
	srv, err := ctl.Serve(n, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close() //nolint:errcheck // teardown
	cl, err := ctl.DialTimeout(srv.Addr(), callTimeout)
	if err != nil {
		return err
	}
	defer cl.Close() //nolint:errcheck // teardown

	pings, err := timeEach(2000, func() error {
		_, err := cl.Ping()
		return err
	})
	if err != nil {
		return err
	}
	m.set("ctl.ping_rtt_us", p50us(pings), "us")

	i := 0
	val := make([]byte, preloadVal)
	commits, err := timeEach(1000, func() error {
		i++
		t, err := n.Begin()
		if err != nil {
			return err
		}
		if err := n.WriteKey(t, fmt.Sprintf("probe%d", i), val); err != nil {
			return err
		}
		_, err = n.Commit(t, camelot.Options{})
		return err
	})
	if err != nil {
		return err
	}
	m.set("core.local_commit_us", p50us(commits), "us")
	return nil
}

// probeLogForce measures wal.Log's append+force with one forcer and
// with two, over a FileStore in scratch, and how many forces one
// store append serves when two forcers overlap (group commit).
func probeLogForce(m metrics, scratch string) error {
	for _, forcers := range []int{1, 2} {
		path := filepath.Join(scratch, "probe-log.wal")
		fs, err := wal.OpenFileStore(path)
		if err != nil {
			return err
		}
		var appends atomic.Int64
		log := wal.Open(rt.Real(), &countingStore{inner: fs, appends: &appends}, wal.Config{GroupCommit: true, Site: 1})
		const each = 2000
		durs := make([][]time.Duration, forcers)
		errs := make([]error, forcers)
		var wg sync.WaitGroup
		for f := 0; f < forcers; f++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				seq := tid.Seq(0)
				durs[f], errs[f] = timeEach(each, func() error {
					seq++
					lsn, err := log.Append(&wal.Record{Type: wal.RecCommit, TID: tid.TID{Family: tid.FamilyID(f + 1), Seq: seq}})
					if err != nil {
						return err
					}
					return log.Force(lsn)
				})
			}()
		}
		wg.Wait()
		log.Close()
		fs.Close()      //nolint:errcheck // scratch
		os.Remove(path) //nolint:errcheck // scratch
		var all []time.Duration
		for f := range durs {
			if errs[f] != nil {
				return errs[f]
			}
			all = append(all, durs[f]...)
		}
		m.set(fmt.Sprintf("wal.log_force_us_%d", forcers), p50us(all), "us")
		if forcers == 2 {
			m.set("wal.forces_per_store_append_2", ratio(float64(len(all)), float64(appends.Load())), "count")
		}
	}
	return nil
}

// probeTransport measures a datagram round trip between two UDPPeers
// and a two-way fan-out that waits for both replies.
func probeTransport(m metrics, _ string) error {
	peers := make([]*transport.UDPPeer, 3)
	for i := range peers {
		p, err := transport.NewUDPPeer(tid.SiteID(i+1), "127.0.0.1:0")
		if err != nil {
			return err
		}
		defer p.Close() //nolint:errcheck // teardown
		peers[i] = p
	}
	for _, a := range peers {
		for j, b := range peers {
			if a != b {
				if err := a.AddPeer(tid.SiteID(j+1), b.Addr()); err != nil {
					return err
				}
			}
		}
	}
	replies := make(chan struct{}, 2) // at most the two replies of one fan-out are outstanding
	peers[0].SetHandler(func(transport.Datagram) { replies <- struct{}{} })
	for _, p := range peers[1:] {
		p.SetHandler(func(d transport.Datagram) {
			p.Send(d.To, d.From, &wire.Msg{Kind: wire.KVote, Vote: wire.VoteYes})
		})
	}
	await := func(n int) error {
		for ; n > 0; n-- {
			select {
			case <-replies:
			case <-time.After(callTimeout):
				return fmt.Errorf("transport probe: datagram lost on loopback")
			}
		}
		return nil
	}
	msg := &wire.Msg{Kind: wire.KPrepare, TID: tid.TID{Family: 1, Seq: 1}}
	rtt, err := timeEach(2000, func() error {
		peers[0].Send(1, 2, msg)
		return await(1)
	})
	if err != nil {
		return err
	}
	m.set("transport.udp_rtt_us", p50us(rtt), "us")
	fan, err := timeEach(2000, func() error {
		peers[0].Multicast(1, []tid.SiteID{2, 3}, msg)
		return await(2)
	})
	if err != nil {
		return err
	}
	m.set("transport.fanout2_us", p50us(fan), "us")
	return nil
}

// probeWire measures the datagram codec on a prepare-sized message,
// the way the transport uses it: encode into a reused buffer, decode
// into a fresh Msg.
func probeWire(m metrics, _ string) error {
	msg := &wire.Msg{
		Kind: wire.KNBPrepare, TID: tid.TID{Family: 7, Seq: 1}, From: 1, To: 2, Seq: 42,
		Sites: []tid.SiteID{1, 2, 3}, CommitQuorum: 2, AbortQuorum: 2,
	}
	buf, err := wire.AppendDatagram(nil, msg)
	if err != nil {
		return err
	}
	const n = 200_000
	m.set("wire.marshal_ns", nsPerOp(n, func(int) {
		buf, _ = wire.AppendDatagram(buf[:0], msg) //nolint:errcheck // encoded once above
	}), "ns")
	var decodeErr error
	m.set("wire.unmarshal_ns", nsPerOp(n, func(int) {
		if _, err := wire.Unmarshal(buf); err != nil {
			decodeErr = err
		}
	}), "ns")
	if decodeErr != nil {
		return decodeErr
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		buf, _ = wire.AppendDatagram(buf[:0], msg) //nolint:errcheck // encoded once above
		wire.Unmarshal(buf)                        //nolint:errcheck // decoded once above
	}
	runtime.ReadMemStats(&after)
	m.set("wire.allocs_per_roundtrip", float64(after.Mallocs-before.Mallocs)/n, "count")
	return nil
}

// probeLocks measures an uncontended acquire+release, the time from
// a release to the blocked waiter running again, and the shard map's
// key routing.
func probeLocks(m metrics, _ string) error {
	lm := lockmgr.New(rt.Real())
	t1, t2 := tid.TID{Family: 1, Seq: 1}, tid.TID{Family: 2, Seq: 1}
	var lockErr error
	m.set("lockmgr.acquire_release_ns", nsPerOp(200_000, func(int) {
		if err := lm.Acquire(t1, "k", lockmgr.Exclusive, 0); err != nil {
			lockErr = err
		}
		lm.Release(t1)
	}), "ns")
	if lockErr != nil {
		return lockErr
	}

	handoffs := make([]time.Duration, 500)
	for i := range handoffs {
		if err := lm.Acquire(t1, "k", lockmgr.Exclusive, 0); err != nil {
			return err
		}
		waits, _ := lm.Waits()
		got := make(chan time.Time, 1)
		errc := make(chan error, 1)
		go func() {
			err := lm.Acquire(t2, "k", lockmgr.Exclusive, callTimeout)
			got <- time.Now()
			errc <- err
		}()
		for {
			if w, _ := lm.Waits(); w > waits {
				break // the waiter is parked on the lock
			}
			runtime.Gosched()
		}
		released := time.Now()
		lm.Release(t1)
		handoffs[i] = (<-got).Sub(released)
		if err := <-errc; err != nil {
			return err
		}
		lm.Release(t2)
	}
	m.set("lockmgr.handoff_us", p50us(handoffs), "us")

	sm := newShardMap()
	keys := preloadKeySet(sm)[0]
	var sink tid.SiteID
	m.set("shardmap.siteof_ns", nsPerOp(200_000, func(i int) {
		sink += sm.SiteOf(keys[i%len(keys)])
	}), "ns")
	if sink == 0 {
		return fmt.Errorf("shardmap probe: keys routed nowhere")
	}
	return nil
}
