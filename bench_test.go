package camelotrepro_test

// One benchmark per table and figure of the paper's evaluation (§4).
// Each runs the corresponding experiment from internal/exp inside the
// deterministic simulation and reports the headline quantity as a
// custom metric (ms of simulated latency, simulated TPS), so
// `go test -bench=.` regenerates the study end to end. The companion
// cmd/camelot-bench prints the full tables in the paper's layout.

import (
	"fmt"
	"os"
	"testing"
	"time"

	"camelot/camelot"
	"camelot/internal/exp"
	"camelot/internal/params"
)

// --- Table 1: primitive benchmarks of the host ---

func BenchmarkTable1_ProcedureCall(b *testing.B) {
	var sink int
	arg := [32]byte{1, 31: 7}
	for i := 0; i < b.N; i++ {
		sink += len(arg) // inlining-resistant work lives in exp.Table1
	}
	_ = sink
}

func BenchmarkTable1_DataCopy1KB(b *testing.B) {
	src := make([]byte, 1024)
	dst := make([]byte, 1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		copy(dst, src)
	}
}

func BenchmarkTable1_KernelCallGetpid(b *testing.B) {
	var pid int
	for i := 0; i < b.N; i++ {
		pid = os.Getpid()
	}
	_ = pid
}

func BenchmarkTable1_LocalMessage(b *testing.B) {
	ch := make(chan int, 1)
	for i := 0; i < b.N; i++ {
		ch <- i
		<-ch
	}
}

func BenchmarkTable1_ContextSwitch(b *testing.B) {
	ping := make(chan int)
	pong := make(chan int)
	go func() {
		for range ping {
			pong <- 1
		}
		close(pong)
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ping <- 1
		<-pong
	}
	close(ping)
}

func BenchmarkTable1_SyncFileWrite(b *testing.B) {
	f, err := os.CreateTemp(b.TempDir(), "wal")
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	block := make([]byte, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.WriteAt(block, 0); err != nil {
			b.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 2: simulated Camelot primitives ---

func BenchmarkTable2_Primitives(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.Table2(params.Paper())
	}
}

// --- Table 3: static vs empirical breakdown ---

func BenchmarkTable3_Breakdown(b *testing.B) {
	var lastMs float64
	for i := 0; i < b.N; i++ {
		res := exp.MeasureLatency(exp.LatencySpec{
			Subs: 0, Trials: 5, Params: params.Paper(),
		})
		lastMs = res.Total.Mean()
	}
	b.ReportMetric(lastMs, "simms/local-update")
}

// --- Figure 1: transaction control flow ---

func BenchmarkFigure1_Trace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.Figure1(params.Paper())
	}
}

// --- Figure 2: two-phase commit latency ---

func BenchmarkFigure2_TwoPhase(b *testing.B) {
	p := params.Paper()
	for _, v := range exp.Figure2Variants {
		for subs := 0; subs <= 3; subs++ {
			name := fmt.Sprintf("%s/subs=%d", v.Name, subs)
			b.Run(name, func(b *testing.B) {
				var mean float64
				for i := 0; i < b.N; i++ {
					res := exp.MeasureLatency(exp.LatencySpec{
						Subs: subs, Opts: v.Opts, ReadOnly: v.ReadOnly,
						Trials: 8, Params: p, Seed: int64(subs),
					})
					mean = res.Total.Mean()
				}
				b.ReportMetric(mean, "simms/txn")
			})
		}
	}
}

// --- Figure 3: non-blocking commit latency ---

func BenchmarkFigure3_NonBlocking(b *testing.B) {
	p := params.Paper()
	for _, ro := range []bool{false, true} {
		kind := "write"
		if ro {
			kind = "read"
		}
		for subs := 1; subs <= 3; subs++ {
			b.Run(fmt.Sprintf("%s/subs=%d", kind, subs), func(b *testing.B) {
				var mean float64
				for i := 0; i < b.N; i++ {
					res := exp.MeasureLatency(exp.LatencySpec{
						Subs: subs, Opts: camelot.Options{Protocol: camelot.NonBlocking},
						ReadOnly: ro, Trials: 8, Params: p, Seed: int64(subs),
					})
					mean = res.Total.Mean()
				}
				b.ReportMetric(mean, "simms/txn")
			})
		}
	}
}

// --- Figure 4: update throughput ---

func BenchmarkFigure4_UpdateThroughput(b *testing.B) {
	p := params.VAX()
	for _, cfg := range []struct {
		name    string
		threads int
		gc      bool
	}{
		{"group-commit", 20, true},
		{"threads=20", 20, false},
		{"threads=5", 5, false},
		{"threads=1", 1, false},
	} {
		for pairs := 1; pairs <= 4; pairs++ {
			b.Run(fmt.Sprintf("%s/pairs=%d", cfg.name, pairs), func(b *testing.B) {
				var tps float64
				for i := 0; i < b.N; i++ {
					r := exp.MeasureThroughput(exp.ThroughputSpec{
						Pairs: pairs, Threads: cfg.threads, GroupCommit: cfg.gc,
						Params: p, Window: 10 * time.Second, Seed: int64(pairs),
					})
					tps = r.TPS
				}
				b.ReportMetric(tps, "simTPS")
			})
		}
	}
}

// --- Figure 5: read throughput ---

func BenchmarkFigure5_ReadThroughput(b *testing.B) {
	p := params.VAX()
	for _, threads := range []int{20, 5, 1} {
		for pairs := 1; pairs <= 4; pairs++ {
			b.Run(fmt.Sprintf("threads=%d/pairs=%d", threads, pairs), func(b *testing.B) {
				var tps float64
				for i := 0; i < b.N; i++ {
					r := exp.MeasureThroughput(exp.ThroughputSpec{
						Pairs: pairs, Threads: threads, ReadOnly: true, GroupCommit: true,
						Params: p, Window: 10 * time.Second, Seed: int64(pairs),
					})
					tps = r.TPS
				}
				b.ReportMetric(tps, "simTPS")
			})
		}
	}
}

// --- §4.1: RPC latency breakdown ---

func BenchmarkRPCBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.RPCBreakdown(params.Paper(), 50)
	}
}

// --- §4.2: multicast variance ---

func BenchmarkMulticastVariance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.MulticastVariance(params.Paper(), 20)
	}
}

// --- §4.2: lock contention ---

func BenchmarkLockContention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.LockContention(params.Paper(), 8)
	}
}

// --- Ablations ---

func BenchmarkAblationGroupCommit(b *testing.B) {
	p := params.VAX()
	for i := 0; i < b.N; i++ {
		off := exp.MeasureThroughput(exp.ThroughputSpec{
			Pairs: 4, Threads: 20, GroupCommit: false, Params: p,
			Window: 10 * time.Second, Seed: 1,
		})
		on := exp.MeasureThroughput(exp.ThroughputSpec{
			Pairs: 4, Threads: 20, GroupCommit: true, Params: p,
			Window: 10 * time.Second, Seed: 1,
		})
		if off.TPS > 0 {
			b.ReportMetric(on.TPS/off.TPS, "speedup")
		}
	}
}

func BenchmarkAblationReadOnly(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.AblationReadOnly(params.Paper(), 8)
	}
}

func BenchmarkAblationCommitVariants(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.AblationCommitVariants(params.Paper(), 8)
	}
}
