package main

import (
	"fmt"
	"time"
)

// metric is one named measurement. N is the sample count behind a
// percentile.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// pct stores the p-th percentile of sorted values with its sample count.
func (m metrics) pct(name string, sorted []float64, p float64, unit string) {
	m[name] = metric{Value: percentile(sorted, p), Unit: unit, N: len(sorted)}
}

// msOf returns pick's duration of every sample keep accepts, in
// milliseconds, ascending.
func msOf(samples []sample, keep func(sample) bool, pick func(sample) time.Duration) []float64 {
	var out []time.Duration
	for _, s := range samples {
		if keep(s) {
			out = append(out, pick(s))
		}
	}
	return in(time.Millisecond, out)
}

func isCommitted(s sample) bool { return s.result == committed }
func anySample(sample) bool     { return true }

func txnTime(s sample) time.Duration { return s.txn }
func lagTime(s sample) time.Duration { return s.lag }

// endToEnd turns an untraced pass into the gated metrics: what a user
// of the system sees, and what a transaction costs in the paper's
// currency of log forces and datagrams.
func endToEnd(r *passResult) metrics {
	m := metrics{}
	commits := float64(r.count(committed))
	m.pct("txn_p50_ms", msOf(r.samples, isCommitted, txnTime), 50, "ms")
	m.pct("commit_p50_ms", msOf(r.samples, isCommitted, func(s sample) time.Duration { return s.commit }), 50, "ms")
	goodput := 0.0
	if r.mismatch == 0 {
		goodput = ratio(commits, r.elapsed.Seconds())
	}
	m.set("goodput_ops_s", goodput, "1/s")
	m.set("cpu_ms_per_txn", ratio(float64(r.cpu)/float64(time.Millisecond), commits), "ms")
	m.set("io_ops_per_txn", ratio(float64(r.delta.storeAppends)+float64(r.delta.sent), commits), "count")
	m.set("heap_live_mb", float64(r.heapLive)/(1<<20), "MB")
	m.set("setup_s", median(r.setup), "s")
	return m
}

// perLayer turns a traced pass into per-layer metrics.
func perLayer(r *passResult) metrics {
	m := metrics{}
	commits := float64(r.count(committed))
	d := r.delta
	per := func(n int) float64 { return ratio(float64(n), commits) }

	// ctl: one span per call, made by the benchmark around the client.
	calls := map[string][]time.Duration{}
	for _, s := range r.spans {
		calls[s.Name] = append(calls[s.Name], time.Duration(s.End-s.Start))
	}
	for _, op := range []string{"begin", "write", "read", "addsites", "commit"} {
		m.pct("ctl."+op+"_p50_us", in(time.Microsecond, calls["ctl."+op]), 50, "us")
	}
	m.pct("ctl.commit_p90_us", in(time.Microsecond, calls["ctl.commit"]), 90, "us")
	m.set("ctl.dials", float64(r.dials), "count")

	// core
	depth, deepest := 0.0, 0
	for _, q := range r.queue {
		depth += float64(q)
		deepest = max(deepest, q)
	}
	m.set("core.queue_depth_mean", ratio(depth, float64(len(r.queue))), "count")
	m.set("core.queue_depth_max", float64(deepest), "count")
	m.set("core.acks_piggybacked_per_txn", per(d.core.AcksPiggybacked), "count")
	m.set("core.acks_standalone_per_txn", per(d.core.AcksStandalone), "count")
	m.set("core.retransmits", float64(d.core.Retransmits), "count")
	m.set("core.inquiries", float64(d.core.Inquiries), "count")
	m.set("core.resolved_retained", float64(d.core.ResolvedRetained), "count")

	// wal
	m.set("wal.appends_per_txn", per(d.logAppends), "count")
	m.set("wal.device_writes_per_txn", per(d.deviceWrites), "count")
	m.set("wal.store_appends_per_txn", per(int(d.storeAppends)), "count")
	m.set("wal.records_per_device_write", ratio(float64(d.logAppends), float64(d.deviceWrites)), "count")
	appendUs := in(time.Microsecond, r.appendDurs)
	m.pct("wal.store_append_p50_us", appendUs, 50, "us")
	m.pct("wal.store_append_p99_us", appendUs, 99, "us")
	busy := time.Duration(0)
	for _, a := range r.appendDurs {
		busy += a
	}
	m.set("wal.store_busy_frac", ratio(busy.Seconds(), r.elapsed.Seconds()*numSites), "frac")
	m.set("wal.bytes_per_append", ratio(float64(r.appendBytes), float64(len(r.appendDurs))), "B")
	m.set("wal.bytes_per_txn", per(int(d.walBytes)), "B")

	// transport
	m.set("transport.sent_per_txn", per(d.sent), "count")
	m.set("transport.recv_per_txn", per(d.recv), "count")
	m.set("transport.dropped", float64(d.dropped), "count")
	m.set("transport.oversize", float64(d.oversize), "count")

	// server, lockmgr
	m.set("server.writes_per_txn", per(d.writes), "count")
	m.set("server.reads_per_txn", per(d.reads), "count")
	m.set("lockmgr.waits_per_txn", per(d.lockWaits), "count")
	m.set("lockmgr.wait_mean_us", ratio(float64(d.lockWait)/float64(time.Microsecond), float64(d.lockWaits)), "us")

	// recman
	m.set("recman.recover_s", median(r.recover), "s")
	m.set("recman.records_replayed", float64(r.replayed), "count")
	m.set("recman.recover_us_per_record", ratio(median(r.recover)*1e6, float64(r.replayed)), "us")

	// proc
	m.set("proc.allocs_per_txn", per(int(r.memAfter.Mallocs-r.memBefore.Mallocs)), "count")
	m.set("proc.alloc_kb_per_txn", ratio(float64(r.memAfter.TotalAlloc-r.memBefore.TotalAlloc)/1024, commits), "kB")
	m.set("proc.gc_pause_ms", float64(r.memAfter.PauseTotalNs-r.memBefore.PauseTotalNs)/1e6, "ms")
	m.set("proc.goroutines", float64(r.goroutines), "count")

	// client: the generator's health and the ungated tail.
	lag := msOf(r.samples, anySample, lagTime)
	txn := msOf(r.samples, isCommitted, txnTime)
	m.pct("client.lag_p50_ms", lag, 50, "ms")
	m.pct("client.lag_p99_ms", lag, 99, "ms")
	m.pct("client.txn_from_due_p50_ms", msOf(r.samples, anySample, func(s sample) time.Duration { return s.fromDue }), 50, "ms")
	m.pct("client.txn_p90_ms", txn, 90, "ms")
	m.pct("client.txn_p99_ms", txn, 99, "ms")
	m.pct("client.txn_max_ms", txn, 100, "ms")
	m.set("client.failed_frac", ratio(float64(r.failed()), float64(len(r.samples))), "frac")

	with := msOf(r.samples, func(s sample) bool { return isCommitted(s) && s.traced }, txnTime)
	without := msOf(r.samples, func(s sample) bool { return isCommitted(s) && !s.traced }, txnTime)
	m.set("trace.overhead_frac", ratio(percentile(with, 50), percentile(without, 50))-1, "frac")
	return m
}

// warnings lists the reasons a reader should discard a run.
func warnings(r *passResult) []string {
	var out []string
	if f := r.failed(); f > 0 {
		out = append(out, fmt.Sprintf("%d of %d transactions failed or verified wrong (aborted %d, errors %d, verifier mismatches %d)",
			f, len(r.samples), r.count(aborted), r.count(failed), r.mismatch))
	}
	if n := r.delta.core.Retransmits; n > 0 {
		out = append(out, fmt.Sprintf("%d retransmits on a fault-free run: a timer fired before its answer arrived", n))
	}
	if n := r.delta.dropped; n > 0 {
		out = append(out, fmt.Sprintf("%d datagrams dropped on loopback", n))
	}
	if p99 := percentile(msOf(r.samples, anySample, lagTime), 99); p99 > 50 {
		out = append(out, fmt.Sprintf("generator lag p99 %.1f ms > 50 ms: the host stalled the client, latencies are not the system's", p99))
	}
	return out
}
