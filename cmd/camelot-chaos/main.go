// Command camelot-chaos is the systematic fault-schedule explorer. A
// fault-free pilot run of a seeded workload enumerates every
// injection point — each stable-log block write, datagram send, and
// checkpoint truncation — and the sweep then replays the identical
// workload once per (point, mode) pair with exactly one fault
// injected there: a crash, a torn or bit-flipped log block, a dropped
// datagram, or a partition window. After each run the recovery oracle
// checks atomicity, the client's view, cross-site outcome agreement,
// durability (by bouncing every site), and liveness. Any failing
// schedule is shrunk to a minimal fault set and reported as
// replayable chaos/v1 JSON.
//
// Usage:
//
//	camelot-chaos [-sites N] [-protocol 2pc|nb|paxos] [-seed S]
//	              [-txns T] [-points MAX] [-json] [-v]
//	camelot-chaos -repro file.json
//	camelot-chaos -netem file.json [-sites N] [-seed S] [-txns T]
//
// With -repro, the named chaos/v1 schedule is replayed instead of
// sweeping — the way to re-run a failure the sweep (or the corpus in
// internal/chaos/testdata) reported. With -netem, the named netem/v1
// fault schedule (the real-cluster emulator format; see
// internal/netem) is replayed under the simulation against the
// workload the other flags describe — deterministically, so two
// replays of the same pair are byte-identical. The exit status is
// nonzero if any run broke an invariant.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"camelot/internal/chaos"
	"camelot/internal/netem"
	"camelot/internal/wire"
)

type options struct {
	sites     int
	protocol  wire.Protocol
	seed      int64
	txns      int
	shards    int
	points    int
	repro     string
	netemFile string
	jsonOut   bool
	verbose   bool
}

func main() {
	var opts options
	flag.IntVar(&opts.sites, "sites", 3, "number of sites (coordinator is site 1)")
	flag.TextVar(&opts.protocol, "protocol", wire.TwoPhase, "commit protocol: 2pc, nb, or paxos")
	flag.Int64Var(&opts.seed, "seed", 1, "simulation seed")
	flag.IntVar(&opts.txns, "txns", 12, "workload transactions per run")
	flag.IntVar(&opts.shards, "shards", 0, "shard the keyspace into N shards and sweep the cross-shard workload (0: legacy replicated-key workload)")
	flag.IntVar(&opts.points, "points", 0, "max injection points to explore (0 = all)")
	flag.StringVar(&opts.repro, "repro", "", "replay a chaos/v1 schedule file instead of sweeping")
	flag.StringVar(&opts.netemFile, "netem", "", "replay a netem/v1 fault schedule under the simulation instead of sweeping")
	flag.BoolVar(&opts.jsonOut, "json", false, "emit the report as JSON")
	flag.BoolVar(&opts.verbose, "v", false, "narrate every run to stderr")
	flag.Parse()

	out, failed, err := run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "camelot-chaos:", err)
		os.Exit(2)
	}
	fmt.Print(out)
	if failed {
		os.Exit(1)
	}
}

// run executes the sweep or replay and returns the rendered report
// and whether any invariant broke. Split from main for testing.
func run(opts options) (out string, failed bool, err error) {
	if opts.repro != "" {
		return replay(opts)
	}
	if opts.netemFile != "" {
		return replayNetem(opts)
	}
	var progress func(string)
	if opts.verbose {
		progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}
	rep, err := chaos.Sweep(chaos.Options{
		Sites:     opts.sites,
		Protocol:  opts.protocol,
		Seed:      opts.seed,
		Txns:      opts.txns,
		Shards:    opts.shards,
		MaxPoints: opts.points,
	}, progress)
	if err != nil {
		return "", false, err
	}
	failed = len(rep.Failures) > 0
	if opts.jsonOut {
		b, err := chaos.EncodeReport(rep)
		if err != nil {
			return "", false, err
		}
		return string(b), failed, nil
	}
	return renderReport(rep), failed, nil
}

// replay re-runs one chaos/v1 schedule file.
func replay(opts options) (string, bool, error) {
	b, err := os.ReadFile(opts.repro)
	if err != nil {
		return "", false, err
	}
	s, err := chaos.DecodeSchedule(b)
	if err != nil {
		return "", false, err
	}
	r, err := chaos.Run(s)
	if err != nil {
		return "", false, err
	}
	out := fmt.Sprintf("replay %s: seed %d, %d sites, %v, %d fault(s)\n",
		opts.repro, s.Seed, s.Sites, s.Protocol, len(s.Faults))
	for _, f := range s.Faults {
		out += fmt.Sprintf("  fault  %s\n", f)
	}
	return out + verdict(r.Outcomes, r.Violations, r.Deadlock), r.Failed(), nil
}

// verdict renders a replay's client view and what the oracle made of it.
func verdict(outcomes, violations []string, deadlock string) string {
	out := fmt.Sprintf("  outcomes %v\n", outcomes)
	if len(violations) == 0 && deadlock == "" {
		return out + "  OK: all invariants hold\n"
	}
	for _, v := range violations {
		out += fmt.Sprintf("  VIOLATION %s\n", v)
	}
	if deadlock != "" {
		out += fmt.Sprintf("  DEADLOCK %s\n", deadlock)
	}
	return out
}

// replayNetem re-runs one netem/v1 fault schedule under the
// simulation, against the workload the flags describe.
func replayNetem(opts options) (string, bool, error) {
	b, err := os.ReadFile(opts.netemFile)
	if err != nil {
		return "", false, err
	}
	ns, err := netem.DecodeSchedule(b)
	if err != nil {
		return "", false, err
	}
	w := chaos.Schedule{
		Version:  chaos.Version,
		Seed:     opts.seed,
		Sites:    opts.sites,
		Protocol: opts.protocol,
		Txns:     opts.txns,
		Shards:   opts.shards,
	}
	r, err := chaos.RunNetem(ns, w)
	if err != nil {
		return "", false, err
	}
	if opts.jsonOut {
		jb, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			return "", false, err
		}
		return string(jb) + "\n", r.Failed(), nil
	}
	out := fmt.Sprintf("netem replay %s: seed %d, %d sites, %d txns\n",
		opts.netemFile, w.Seed, w.Sites, w.Txns)
	out += fmt.Sprintf("  emulator  seen %d, dropped %d (cut %d), dupped %d, delayed %d\n",
		r.Counts.Seen, r.Counts.Dropped, r.Counts.Cut, r.Counts.Dupped, r.Counts.Delayed)
	return out + verdict(r.Outcomes, r.Violations, r.Deadlock), r.Failed(), nil
}

// renderReport formats a sweep report for humans.
func renderReport(rep *chaos.Report) string {
	sharding := ""
	if rep.Shards > 0 {
		sharding = fmt.Sprintf(", %d shards", rep.Shards)
	}
	out := fmt.Sprintf("chaos sweep: %v, seed %d, %d sites%s, %d txns\n",
		rep.Protocol, rep.Seed, rep.Sites, sharding, rep.Txns)
	out += fmt.Sprintf("  points: %d enumerated, %d explored; %d runs\n",
		rep.PointsTotal, rep.PointsRun, rep.Runs)
	if len(rep.Failures) == 0 {
		out += "  OK: zero invariant violations\n"
		return out
	}
	out += fmt.Sprintf("  %d FAILING schedule(s):\n", len(rep.Failures))
	for _, f := range rep.Failures {
		for _, fault := range f.Schedule.Faults {
			out += fmt.Sprintf("    fault %s\n", fault)
		}
		for _, v := range f.Violations {
			out += fmt.Sprintf("      %s\n", v)
		}
		if f.Deadlock != "" {
			out += fmt.Sprintf("      deadlock: %s\n", f.Deadlock)
		}
		if b, err := f.Schedule.Encode(); err == nil {
			out += "    repro:\n"
			out += indent(string(b), "      ")
		}
	}
	return out
}

func indent(s, prefix string) string {
	out := ""
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out += prefix + s[start:i+1]
			start = i + 1
		}
	}
	if start < len(s) {
		out += prefix + s[start:] + "\n"
	}
	return out
}
