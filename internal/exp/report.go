package exp

import (
	"fmt"
	"io"
	"strings"

	"camelot/internal/analysis"
	"camelot/internal/params"
	"camelot/internal/stats"
)

// Experiment is one row of the repository's experiment index
// (DESIGN.md §4).
type Experiment struct {
	// Name is the stable key: camelot-bench's -only name and the
	// table's name in the camelot-bench/v1 report.
	Name string
	// Heading is the section line the full text report prints above it.
	Heading string
	// Run executes the experiment. quick trims the trial counts so the
	// whole index finishes in seconds. Prose, when non-empty, is printed
	// ahead of the table; a prose-only experiment returns a nil table
	// and has no entry in the machine-readable report.
	Run func(quick bool) (prose string, table *stats.Table)
}

// trials is the per-point repetition count of the simulated latency
// experiments.
func trials(quick bool) int {
	if quick {
		return 8
	}
	return 25
}

// table adapts an experiment that is just a table.
func table(run func(quick bool) *stats.Table) func(bool) (string, *stats.Table) {
	return func(quick bool) (string, *stats.Table) { return "", run(quick) }
}

// Index lists every simulated experiment, in report order. The text
// report, the JSON report and camelot-bench -only are all read off it,
// so a name one of them knows is a name all of them know.
var Index = []Experiment{
	{"table1", "== T1: host primitive benchmarks (paper Table 1) ==",
		table(func(bool) *stats.Table { return Table1() })},
	{"table2", "== T2: simulated Camelot primitives (paper Table 2) ==",
		table(func(bool) *stats.Table { return Table2(params.Paper()) })},
	{"figure1", "== F1: execution of a transaction (paper Figure 1) ==",
		func(bool) (string, *stats.Table) { return Figure1(params.Paper()), nil }},
	{"table3", "== T3: static vs empirical latency (paper Table 3) ==",
		func(q bool) (string, *stats.Table) { return Table3(params.Paper(), trials(q)) }},
	{"figure2", "== F2: two-phase commit latency (paper Figure 2) ==",
		table(func(q bool) *stats.Table { return Figure2(params.Paper(), trials(q)) })},
	{"figure3", "== F3: non-blocking commit latency (paper Figure 3) ==",
		table(func(q bool) *stats.Table { return Figure3(params.Paper(), trials(q)) })},
	{"three-way", "== F6: three-way commit latency (2PC vs Paxos Commit vs NB) ==",
		table(func(q bool) *stats.Table { return ThreeWayCommit(params.Paper(), trials(q)) })},
	{"figure4", "== F4: update transaction throughput (paper Figure 4) ==",
		table(func(bool) *stats.Table { return Figure4(params.VAX()) })},
	{"figure5", "== F5: read transaction throughput (paper Figure 5) ==",
		table(func(bool) *stats.Table { return Figure5(params.VAX()) })},
	{"rpc", "== E1: RPC latency breakdown (paper §4.1) ==",
		table(func(q bool) *stats.Table { return RPCBreakdown(params.Paper(), 10*trials(q)) })},
	{"multicast", "== E2: multicast variance (paper §4.2) ==",
		table(func(q bool) *stats.Table { return MulticastVariance(params.Paper(), 4*trials(q)) })},
	{"contention", "== E3: lock contention, back-to-back transactions (paper §4.2) ==",
		table(func(q bool) *stats.Table { return LockContention(params.Paper(), trials(q)) })},
	{"ablation-group-commit", "== A1: ablation — group commit ==",
		table(func(bool) *stats.Table { return AblationGroupCommit(params.VAX()) })},
	{"ablation-read-only", "== A2: ablation — read-only optimization ==",
		table(func(q bool) *stats.Table { return AblationReadOnly(params.Paper(), trials(q)) })},
	{"ablation-commit-variants", "== A3: ablation — commit variants ==",
		table(func(q bool) *stats.Table { return AblationCommitVariants(params.Paper(), trials(q)) })},
	{"formulas", "== static analysis: full path formulas ==",
		func(bool) (string, *stats.Table) { return pathFormulas(params.Paper()), nil }},
}

// Names lists the index's experiment names, in order.
func Names() []string {
	out := make([]string, len(Index))
	for i, e := range Index {
		out[i] = e.Name
	}
	return out
}

// Find returns the index row with the given name.
func Find(name string) (Experiment, bool) {
	for _, e := range Index {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Print runs the experiment and writes its paper-style output to w.
func (e Experiment) Print(w io.Writer, quick bool) {
	prose, t := e.Run(quick)
	if prose != "" {
		fmt.Fprintln(w, prose)
	}
	if t != nil {
		fmt.Fprintln(w, t)
	}
}

// RunAll executes every experiment in the index and writes paper-style
// output to w, each under its section heading.
func RunAll(w io.Writer, quick bool) {
	for _, e := range Index {
		fmt.Fprintf(w, "\n%s\n\n", e.Heading)
		e.Print(w, quick)
	}
}

// pathFormulas renders the static analysis's full path formulas.
func pathFormulas(p params.Params) string {
	var lines []string
	for _, b := range []analysis.Breakdown{
		analysis.LocalUpdateCompletion(p),
		analysis.LocalReadCompletion(p),
		analysis.TwoPhaseUpdateCompletion(p, 1),
		analysis.TwoPhaseUpdateCritical(p, 1),
		analysis.TwoPhaseReadCompletion(p, 1),
		analysis.NonBlockingUpdateCompletion(p, 1),
		analysis.NonBlockingUpdateCritical(p, 1),
		analysis.NonBlockingReadCompletion(p, 1),
	} {
		lines = append(lines, b.String())
	}
	return strings.Join(lines, "\n")
}
