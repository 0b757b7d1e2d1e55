package lint

import (
	"go/ast"
	"go/types"
)

// MapRange flags `for range` statements over maps. Go randomizes map
// iteration order per run, so in any package the simulator runs, a loop
// whose visit order can reach an observable effect — a datagram send,
// a future wake-up, a trace event — breaks byte-identical replay.
// This is the bug class the deterministic-replay test caught in
// core/messaging.go's retry fan-out.
//
// Two escapes exist: route the keys through the canonical helper
// package internal/det (whose own loops are the single allowed range
// site), or justify the loop with `//lint:ordered <why>` when it is
// provably order-insensitive (set union, commutative sum, collect-
// then-sort).
var MapRange = &Analyzer{
	Name: "maprange",
	Doc:  "flag nondeterministic map iteration in library packages",
	Run:  runMapRange,
}

func runMapRange(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.Info.Types[rs.X]
			if !ok || tv.Type == nil {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if pass.allowed(rs.Pos(), "ordered", "maprange") {
				return true
			}
			pass.Reportf(rs.Pos(),
				"range over map %s has nondeterministic iteration order; sort the keys via det.SortedKeys (or justify with //lint:ordered)",
				types.TypeString(tv.Type, types.RelativeTo(pass.Pkg)))
			return true
		})
	}
	return nil
}
