// Command camelot-bench regenerates every table and figure of the
// paper's evaluation (§4) from the simulated substrate and prints
// them in the paper's row/series layout. See EXPERIMENTS.md for the
// side-by-side comparison with the published numbers.
//
// Usage:
//
//	camelot-bench [-quick] [-json] [-realtime] [-only <experiment>]
//	camelot-bench -loadgen [-rates 200,500,1000] [-duration 2s]
//	              [-protocols 2pc,nb,paxos] [-sites 3] [-shards 0]
//	              [-sessions 64] [-dist poisson] [-seed 1] [-json]
//
// -only takes a name from the experiment index (internal/exp.Index —
// the names -json gives its tables, plus the prose-only figure1 and
// formulas) or realtime; an unknown name lists them.
//
// -json emits the camelot-bench/v1 machine-readable report instead of
// text, so successive commits can archive the report and track a
// performance trajectory. -realtime appends the host-dependent
// multi-family scaling experiment (R10), which measures this machine
// rather than the simulated testbed. Real-network latency per protocol
// and per write-set span is cmd/camelot-perf's job (its dist-* and
// local-update/wide-2pc workloads), on the real RealNode/ctl/file-WAL
// stack.
//
// -loadgen switches to the open-loop load generator (R5): a seeded
// arrival schedule at each target rate drives a freshly booted
// real cluster through the ctl control plane, and latency is measured
// from each operation's intended arrival time (see DESIGN.md §13).
// -shards 0 places one shard per site. With -json it emits the
// camelot-load/v1 report instead of the text table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"camelot/internal/exp"
	"camelot/internal/load"
	"camelot/internal/stats"
	"camelot/internal/wire"
)

func runLoadgen(jsonOut bool) {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	protocols := wire.Protocols()
	fs.Func("protocols", "comma-separated commit protocols (default: every protocol)", func(s string) error {
		protocols = nil
		for _, name := range strings.Split(s, ",") {
			p, err := wire.ParseProtocol(name)
			if err != nil {
				return err
			}
			protocols = append(protocols, p)
		}
		return nil
	})
	rates := fs.String("rates", "200,500,1000", "comma-separated target rates, ops/second")
	duration := fs.Duration("duration", 2*time.Second, "scheduled arrival window per cell")
	sites := fs.Int("sites", 3, "cluster size")
	shards := fs.Int("shards", 0, "shard count (0 = one shard per site)")
	sessions := fs.Int("sessions", 64, "concurrent client sessions")
	dist := fs.String("dist", load.DistPoisson, "arrival distribution: poisson or uniform")
	seed := fs.Int64("seed", 1, "arrival-schedule seed")
	jsonFlag := fs.Bool("json", jsonOut, "emit the camelot-load/v1 JSON report")
	fs.Parse(loadgenArgs()) //nolint:errcheck // ExitOnError

	var rateList []float64
	for _, s := range strings.Split(*rates, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad rate %q: %v\n", s, err)
			os.Exit(2)
		}
		rateList = append(rateList, r)
	}
	dir, err := os.MkdirTemp("", "camelot-loadgen-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir) //nolint:errcheck // best-effort cleanup

	cfg := load.BenchConfig{
		Protocols: protocols,
		Rates:     rateList,
		Duration:  *duration,
		Sites:     *sites,
		Shards:    *shards,
		Sessions:  *sessions,
		Dist:      *dist,
		Seed:      *seed,
		Dir:       dir,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	rep, err := load.RunBench(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *jsonFlag {
		b, err := rep.JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(string(b))
		return
	}
	fmt.Println(rep.Table())
}

// loadgenArgs strips the -loadgen flag itself so the loadgen flag set
// parses the rest of the command line.
func loadgenArgs() []string {
	var out []string
	for _, a := range os.Args[1:] {
		if a == "-loadgen" || a == "--loadgen" {
			continue
		}
		out = append(out, a)
	}
	return out
}

func main() {
	for _, a := range os.Args[1:] {
		if a == "-loadgen" || a == "--loadgen" {
			runLoadgen(false)
			return
		}
	}
	quick := flag.Bool("quick", false, "fewer trials; finishes in seconds")
	jsonOut := flag.Bool("json", false, "emit the camelot-bench/v1 JSON report")
	realtime := flag.Bool("realtime", false, "include the real-runtime scaling experiment (host-dependent)")
	only := flag.String("only", "", "run a single experiment: "+strings.Join(exp.Names(), ", ")+", or realtime")
	flag.Bool("loadgen", false, "run the open-loop load generator (see -loadgen -help)")
	flag.Parse()

	w := os.Stdout

	scaling := func() *stats.Table {
		return exp.RealtimeScaling([]int{1, 2, 4}, 8, 300*time.Millisecond)
	}
	if *jsonOut {
		rep := exp.RunAllJSON(*quick)
		if *realtime {
			rep.Tables = append(rep.Tables, exp.TableJSON("realtime", scaling()))
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	switch e, indexed := exp.Find(*only); {
	case *only == "":
		exp.RunAll(w, *quick)
		if *realtime {
			fmt.Fprintln(w, "\n== R10: real-runtime family scaling (this host) ==")
			fmt.Fprintln(w)
			fmt.Fprintln(w, scaling())
		}
	case indexed:
		e.Print(w, *quick)
	case *only == "realtime":
		fmt.Fprintln(w, scaling())
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q (want one of %s, realtime)\n",
			*only, strings.Join(exp.Names(), ", "))
		os.Exit(2)
	}
}
