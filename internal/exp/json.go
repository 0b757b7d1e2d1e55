package exp

import "camelot/internal/stats"

// BenchSchema identifies the machine-readable report layout. Bump the
// version suffix on any incompatible change so perf-trajectory tooling
// comparing BENCH_*.json files across commits can refuse mismatches.
const BenchSchema = "camelot-bench/v1"

// BenchTable is one experiment's table in machine-readable form.
type BenchTable struct {
	Name   string     `json:"name"`   // stable experiment key (the -only name)
	Title  string     `json:"title"`  // human title, as printed by the text mode
	Header []string   `json:"header"` // column names
	Rows   [][]string `json:"rows"`   // body cells, formatted as in text mode
}

// BenchReport is the root object camelot-bench -json emits.
type BenchReport struct {
	Schema string       `json:"schema"`
	Quick  bool         `json:"quick"`
	Tables []BenchTable `json:"tables"`
}

// TableJSON converts one stats.Table under a stable experiment name.
func TableJSON(name string, t *stats.Table) BenchTable {
	return BenchTable{Name: name, Title: t.Title(), Header: t.Header(), Rows: t.Rows()}
}

// RunAllJSON runs every experiment in the index and returns the report
// of those that produce a table (the prose-only rows — the Figure 1
// walkthrough, the static-analysis formulas — have none).
func RunAllJSON(quick bool) *BenchReport {
	rep := &BenchReport{Schema: BenchSchema, Quick: quick}
	for _, e := range Index {
		if _, t := e.Run(quick); t != nil {
			rep.Tables = append(rep.Tables, TableJSON(e.Name, t))
		}
	}
	return rep
}
