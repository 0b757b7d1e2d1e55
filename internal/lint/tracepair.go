package lint

import (
	"go/ast"
	"go/token"
	"sort"
	"strconv"
)

// TracePair pins the trace layer to the protocol code it observes.
// The conformance tests assert the paper's budgets (log forces and
// datagrams per commit) against trace counters, so the counters must
// not be able to drift from the code:
//
//  1. every function that issues a wal force (Log.Force)
//     must also emit its trace.Collector.LogForce event — otherwise
//     the budget undercounts and the conformance tests pin a lie.
//     internal/core keeps one such function, forceRecord, which every
//     protocol step that needs durability calls; the rule is the
//     safety net under a second force site, not a checklist for
//     fourteen copies of the first;
//  2. every protocol phase literal passed to PhaseBegin must appear
//     in some PhaseEnd in the same package, and vice versa — an
//     unpaired begin leaks an open phase (no latency sample), an
//     unpaired end is dead instrumentation.
//
// Escape hatch: `//lint:tracepair <why>` on the force or phase call.
var TracePair = &Analyzer{
	Name: "tracepair",
	Doc:  "wal forces must emit trace.LogForce; PhaseBegin/PhaseEnd literals must pair",
	Run:  runTracePair,
}

func runTracePair(pass *Pass) error {
	type phaseUse struct {
		pos   token.Pos
		count int
	}
	begins := make(map[string]*phaseUse)
	ends := make(map[string]*phaseUse)

	record := func(m map[string]*phaseUse, name string, pos token.Pos) {
		if u := m[name]; u != nil {
			u.count++
		} else {
			m[name] = &phaseUse{pos: pos, count: 1}
		}
	}

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			var forces []*ast.CallExpr
			emitsLogForce := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := pass.calleeMethod(call)
				if fn == nil {
					return true
				}
				switch {
				case pkgTail(fn, "wal") && fn.Name() == "Force":
					forces = append(forces, call)
				case pkgTail(fn, "trace") && fn.Name() == "LogForce":
					emitsLogForce = true
				case pkgTail(fn, "trace") && (fn.Name() == "PhaseBegin" || fn.Name() == "PhaseEnd"):
					name, ok := phaseLiteral(call)
					if !ok || pass.allowed(call.Pos(), "tracepair") {
						return true
					}
					if fn.Name() == "PhaseBegin" {
						record(begins, name, call.Pos())
					} else {
						record(ends, name, call.Pos())
					}
				}
				return true
			})
			if emitsLogForce {
				continue
			}
			for _, call := range forces {
				if pass.allowed(call.Pos(), "tracepair") {
					continue
				}
				pass.Reportf(call.Pos(),
					"%s issues a wal force but never emits trace.LogForce, so the force-budget counters drift from the code (or justify with //lint:tracepair)",
					fd.Name.Name)
			}
		}
	}

	for _, name := range sortedPhaseNames(begins) {
		if ends[name] == nil {
			pass.Reportf(begins[name].pos,
				"protocol phase %q is begun but never ended in this package; the phase latency sample leaks open", name)
		}
	}
	for _, name := range sortedPhaseNames(ends) {
		if begins[name] == nil {
			pass.Reportf(ends[name].pos,
				"protocol phase %q is ended but never begun in this package; the PhaseEnd is dead instrumentation", name)
		}
	}
	return nil
}

// phaseLiteral extracts the string literal naming the phase (the last
// argument of PhaseBegin/PhaseEnd). Dynamic phase names are outside
// the analyzer's reach and are skipped.
func phaseLiteral(call *ast.CallExpr) (string, bool) {
	if len(call.Args) == 0 {
		return "", false
	}
	lit, ok := call.Args[len(call.Args)-1].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return s, true
}

func sortedPhaseNames[V any](m map[string]*V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
