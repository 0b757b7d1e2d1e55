package lint

import (
	"go/ast"
)

// RawGo flags raw `go` statements. Simulated code must spawn threads
// through rt.Runtime.Go so the cooperative kernel schedules them on
// the virtual clock; a raw goroutine escapes the scheduler, runs on
// host time, and races the single-threaded simulation — the kernel
// cannot even see it to include it in deadlock reports.
//
// The sim/rt kernel packages, which implement the scheduler
// itself, are out of scope. A genuinely host-side goroutine elsewhere
// (the UDP adapter's read loop) carries `//lint:rawgo <why>`.
var RawGo = &Analyzer{
	Name: "rawgo",
	Doc:  "forbid raw go statements outside the sim/rt kernel",
	Run:  runRawGo,
}

func runRawGo(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if pass.allowed(g.Pos(), "rawgo") {
				return true
			}
			pass.Reportf(g.Pos(),
				"raw go statement escapes the cooperative scheduler; spawn via rt.Runtime.Go (or justify with //lint:rawgo)")
			return true
		})
	}
	return nil
}
