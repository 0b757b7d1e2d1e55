package load

import (
	"encoding/json"
	"fmt"
	"time"

	"camelot/internal/rt"
	"camelot/internal/stats"
	"camelot/internal/wire"
)

// Schema identifies the report format. Consumers (CI artifacts,
// EXPERIMENTS.md tables, cross-PR deltas) dispatch on it; the golden
// test pins it.
const Schema = "camelot-load/v1"

// Report is one loadgen invocation's full result: the workload's
// identity plus one row per (protocol, target rate) cell.
type Report struct {
	Schema     string  `json:"schema"`
	Sites      int     `json:"sites"`
	Shards     int     `json:"shards"`
	Sessions   int     `json:"sessions"`
	Dist       string  `json:"dist"`
	Seed       int64   `json:"seed"`
	DurationMS float64 `json:"duration_ms"`
	Rows       []Row   `json:"rows"`
}

// Row is one measured cell. Latencies are microseconds, measured
// from each operation's intended arrival time (open loop).
type Row struct {
	Protocol   string  `json:"protocol"`
	TargetRate float64 `json:"target_rate"`
	Offered    float64 `json:"offered"`
	Goodput    float64 `json:"goodput"`
	Ops        int     `json:"ops"`
	Errs       int     `json:"errs"`
	P50us      float64 `json:"p50_us"`
	P95us      float64 `json:"p95_us"`
	P99us      float64 `json:"p99_us"`
	P999us     float64 `json:"p999_us"`
	MaxUs      float64 `json:"max_us"`
	// WAL and transport deltas for this cell, cluster-wide.
	WALAppends      int `json:"wal_appends"`
	WALDeviceWrites int `json:"wal_device_writes"`
	Sent            int `json:"sent"`
	Recv            int `json:"recv"`
	Dropped         int `json:"dropped"`
	// Dials is the connection-pool dial count: a healthy run dials
	// about its concurrency, not once per operation.
	Dials int `json:"dials"`
}

// JSON renders the canonical indented encoding.
func (rep *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(rep, "", "  ")
}

// Table renders the report as an aligned text table for terminals.
func (rep *Report) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Open-loop load (%d sites, %d shards, %d sessions, %s arrivals, %.0fms/cell)",
			rep.Sites, rep.Shards, rep.Sessions, rep.Dist, rep.DurationMS),
		"protocol", "target/s", "offered/s", "goodput/s", "p50 ms", "p95 ms", "p99 ms", "p999 ms", "max ms", "errs", "dev writes")
	for _, r := range rep.Rows {
		t.AddRow(r.Protocol,
			fmt.Sprintf("%.0f", r.TargetRate),
			fmt.Sprintf("%.0f", r.Offered),
			fmt.Sprintf("%.0f", r.Goodput),
			fmt.Sprintf("%.3f", r.P50us/1000),
			fmt.Sprintf("%.3f", r.P95us/1000),
			fmt.Sprintf("%.3f", r.P99us/1000),
			fmt.Sprintf("%.3f", r.P999us/1000),
			fmt.Sprintf("%.3f", r.MaxUs/1000),
			fmt.Sprintf("%d", r.Errs),
			fmt.Sprintf("%d", r.WALDeviceWrites))
	}
	return t
}

// BenchConfig parameterizes a full loadgen sweep: every protocol at
// every target rate, each cell against a freshly booted cluster so no
// cell inherits another's queues, WAL tail, or retry backlog.
type BenchConfig struct {
	Protocols []wire.Protocol
	Rates     []float64
	Duration  time.Duration
	Sites     int
	Shards    int
	Sessions  int
	Dist      string
	Seed      int64
	// Dir hosts the clusters' WALs (one subdirectory per cell).
	Dir string
	// Logf, if non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// RunBench executes the sweep and assembles the report.
func RunBench(cfg BenchConfig) (*Report, error) {
	r := rt.Real()
	if cfg.Sessions <= 0 {
		cfg.Sessions = 1
	}
	if cfg.Dist == "" {
		cfg.Dist = DistPoisson
	}
	if cfg.Shards <= 0 {
		cfg.Shards = cfg.Sites // StartCluster's default; the report states what ran
	}
	rep := &Report{
		Schema:     Schema,
		Sites:      cfg.Sites,
		Shards:     cfg.Shards,
		Sessions:   cfg.Sessions,
		Dist:       cfg.Dist,
		Seed:       cfg.Seed,
		DurationMS: float64(cfg.Duration) / float64(time.Millisecond),
	}
	// Refuse before the first cluster boots: a protocol no node accepts
	// would otherwise produce rows of errors and a clean exit.
	for _, proto := range cfg.Protocols {
		if err := proto.Check(); err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
	}
	for _, proto := range cfg.Protocols {
		for _, rate := range cfg.Rates {
			if cfg.Logf != nil {
				cfg.Logf("loadgen: %s @ %.0f/s ...", proto, rate)
			}
			row, err := runCell(r, cfg, proto, rate)
			if err != nil {
				return nil, fmt.Errorf("load: %s @ %.0f/s: %w", proto, rate, err)
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep, nil
}

func runCell(r rt.Runtime, cfg BenchConfig, proto wire.Protocol, rate float64) (Row, error) {
	c, err := StartCluster(ClusterConfig{
		Sites:    cfg.Sites,
		Shards:   cfg.Shards,
		Dir:      fmt.Sprintf("%s/%s-%.0f", cfg.Dir, proto, rate),
		Sessions: cfg.Sessions,
	})
	if err != nil {
		return Row{}, err
	}
	defer c.Close()

	lcfg := Config{
		Rate:     rate,
		Duration: cfg.Duration,
		Sessions: cfg.Sessions,
		Dist:     cfg.Dist,
		Seed:     cfg.Seed,
	}
	res, err := Run(r, lcfg, func(i int) error {
		return c.Update(i%cfg.Sessions, i, proto)
	})
	if err != nil {
		return Row{}, err
	}
	sc := c.Counters()
	return Row{
		Protocol:        proto.String(),
		TargetRate:      rate,
		Offered:         res.Offered(lcfg),
		Goodput:         res.Goodput(),
		Ops:             res.Done,
		Errs:            res.Errs,
		P50us:           us(res.Hist.Percentile(50)),
		P95us:           us(res.Hist.Percentile(95)),
		P99us:           us(res.Hist.Percentile(99)),
		P999us:          us(res.Hist.Percentile(99.9)),
		MaxUs:           us(res.Hist.Max()),
		WALAppends:      sc.LogAppends,
		WALDeviceWrites: sc.DeviceWrites,
		Sent:            sc.MsgsSent,
		Recv:            sc.MsgsRecv,
		Dropped:         sc.MsgsDropped,
		Dials:           c.Dials(),
	}, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
