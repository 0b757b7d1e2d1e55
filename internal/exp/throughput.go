package exp

import (
	"fmt"
	"time"

	"camelot/camelot"
	"camelot/internal/params"
	"camelot/internal/sim"
	"camelot/internal/stats"
)

// ThroughputSpec describes one §4.4 throughput configuration:
// application/server pairs executing minimal transactions against a
// single site, with a fixed transaction-manager thread count.
// "Separate pairs of applications and servers were used to ensure
// that operation processing was not a bottleneck."
type ThroughputSpec struct {
	Pairs       int
	Threads     int
	GroupCommit bool
	ReadOnly    bool
	Params      params.Params
	Window      time.Duration
	Seed        int64
}

// throughputWarmup is how long each run settles before its window
// opens; commits before then are not counted.
const throughputWarmup = 5 * time.Second

// ThroughputResult is one measured point.
type ThroughputResult struct {
	Spec         ThroughputSpec
	TPS          float64
	Committed    int
	DeviceWrites int // log device writes during the whole run
}

// MeasureThroughput runs one throughput configuration to saturation
// behavior: each pair is a closed loop, so offered load rises with
// the pair count.
func MeasureThroughput(spec ThroughputSpec) *ThroughputResult {
	if spec.Window <= 0 {
		spec.Window = 30 * time.Second
	}
	res := &ThroughputResult{Spec: spec}
	k := sim.New(spec.Seed + 7)
	cfg := camelot.DefaultConfig()
	cfg.Params = spec.Params
	cfg.Threads = spec.Threads
	cfg.GroupCommit = spec.GroupCommit
	c := camelot.NewCluster(k, cfg)
	n := c.AddNode(1)
	for pair := 0; pair < spec.Pairs; pair++ {
		n.AddServer(fmt.Sprintf("pair%d", pair))
	}

	counted := 0
	k.Go("load", func() {
		// Seed read data.
		if spec.ReadOnly {
			for pair := 0; pair < spec.Pairs; pair++ {
				tx, err := n.Begin()
				if err != nil {
					return
				}
				tx.Write(fmt.Sprintf("pair%d", pair), "k", []byte("seed")) //nolint:errcheck
				tx.Commit()                                                //nolint:errcheck
			}
		}
		for pair := 0; pair < spec.Pairs; pair++ {
			srv := fmt.Sprintf("pair%d", pair)
			k.Go(srv+"-app", func() {
				for i := 0; ; i++ {
					tx, err := n.Begin()
					if err != nil {
						return
					}
					if spec.ReadOnly {
						_, err = tx.Read(srv, "k")
					} else {
						err = tx.Write(srv, "k", []byte{byte(i)})
					}
					if err != nil {
						tx.Abort() //nolint:errcheck
						continue
					}
					if err := tx.Commit(); err != nil {
						continue
					}
					now := time.Duration(k.Now())
					if now > throughputWarmup && now <= throughputWarmup+spec.Window {
						counted++
					}
				}
			})
		}
		k.Sleep(throughputWarmup + spec.Window)
		k.Stop()
	})
	k.RunUntil(throughputWarmup + spec.Window + time.Minute)
	res.Committed = counted
	res.TPS = float64(counted) / spec.Window.Seconds()
	res.DeviceWrites = n.Log().DeviceWrites()
	return res
}

// Figure4 reproduces "Update Transaction Throughput": pairs 1–4 with
// 1, 5, and 20 transaction-manager threads (log batching off), plus
// the group-commit curve.
func Figure4(p params.Params) *stats.Table {
	t := stats.NewTable("Figure 4: Update Transaction Throughput (TPS)",
		"configuration", "1 pair", "2 pairs", "3 pairs", "4 pairs")
	configs := []struct {
		name    string
		threads int
		gc      bool
	}{
		{"group commit (20 threads)", 20, true},
		{"20 threads", 20, false},
		{"5 threads", 5, false},
		{"1 thread", 1, false},
	}
	for _, cfg := range configs {
		row := []any{cfg.name}
		for pairs := 1; pairs <= 4; pairs++ {
			r := MeasureThroughput(ThroughputSpec{
				Pairs: pairs, Threads: cfg.threads, GroupCommit: cfg.gc,
				Params: p, Seed: int64(pairs),
			})
			row = append(row, r.TPS)
		}
		t.AddRowf(row...)
	}
	return t
}

// Figure5 reproduces "Read Transaction Throughput": pairs 1–4 with 1,
// 5, and 20 threads. Read transactions never force the log, so group
// commit is irrelevant.
func Figure5(p params.Params) *stats.Table {
	t := stats.NewTable("Figure 5: Read Transaction Throughput (TPS)",
		"configuration", "1 pair", "2 pairs", "3 pairs", "4 pairs")
	for _, threads := range []int{20, 5, 1} {
		row := []any{fmt.Sprintf("%d thread(s)", threads)}
		for pairs := 1; pairs <= 4; pairs++ {
			r := MeasureThroughput(ThroughputSpec{
				Pairs: pairs, Threads: threads, ReadOnly: true, GroupCommit: true,
				Params: p, Seed: int64(pairs),
			})
			row = append(row, r.TPS)
		}
		t.AddRowf(row...)
	}
	return t
}

// AblationGroupCommit restates Figure 4 as the group-commit speedup
// at each offered load, plus the device-write counts that explain it.
func AblationGroupCommit(p params.Params) *stats.Table {
	t := stats.NewTable("Ablation: group commit on/off (update transactions, 20 threads)",
		"pairs", "TPS off", "TPS on", "speedup", "txns/write off", "txns/write on")
	for pairs := 1; pairs <= 4; pairs++ {
		off := MeasureThroughput(ThroughputSpec{
			Pairs: pairs, Threads: 20, GroupCommit: false, Params: p, Seed: int64(pairs),
		})
		on := MeasureThroughput(ThroughputSpec{
			Pairs: pairs, Threads: 20, GroupCommit: true, Params: p, Seed: int64(pairs),
		})
		speedup := 0.0
		if off.TPS > 0 {
			speedup = on.TPS / off.TPS
		}
		perWrite := func(r *ThroughputResult) float64 {
			if r.DeviceWrites == 0 {
				return 0
			}
			// The device is saturated in both modes; batching shows up
			// as more committed transactions per device write.
			return float64(r.Committed) / float64(r.DeviceWrites)
		}
		t.AddRowf(pairs, off.TPS, on.TPS, speedup, perWrite(off), perWrite(on))
	}
	return t
}
