package lint

import "go/types"

// KindSurface pins every wire.Kind member to the parallel surfaces
// that must grow with it. PR 5's silent-loss bug was exactly a
// surface gap — datagrams of a kind with no registered handler were
// dropped invisibly — and each new commit protocol re-opens every
// seam. For each non-zero Kind constant the analyzer demands:
//
//   - a row in wire's kind registry (the kindNames map literal):
//     both codec directions consult it — Unmarshal returns ErrBadKind
//     and AppendDatagram refuses to encode a kind that is not
//     registered — so a missing row makes the kind unencodable and
//     undecodable;
//   - at least one handler: a case naming the kind in some switch
//     over wire.Kind in internal/core (the datagram dispatch);
//   - a row in the chaos injection-coverage table (the map literal
//     keyed by wire.Kind in internal/chaos), which declares how the
//     systematic fault sweep reaches the kind — via a fault-free
//     pilot or only under injected faults — and which the dynamic
//     coverage test checks against real pilot runs.
//
// A kind exempt from a surface carries `//lint:kindsurface <why>` on
// its constant declaration. Findings are reported at the constant,
// so the justification and the member live on the same line.
var KindSurface = &ModuleAnalyzer{
	Name: "kindsurface",
	Doc:  "every wire.Kind needs a codec registry row, a core handler, and chaos injection coverage",
	Run:  runKindSurface,
}

func runKindSurface(mp *ModulePass) error {
	wirePkg := mp.Package("wire")
	if wirePkg == nil {
		return nil
	}
	enum := lookupEnum(wirePkg, "Kind")
	if enum == nil {
		return nil
	}
	wirePass := mp.Pass(wirePkg)

	registry := mapKeyUnion(wirePass, enum)
	var handlers, coverage map[int64]bool
	if corePkg := mp.Package("core"); corePkg != nil {
		handlers = switchCaseUnion(mp.Pass(corePkg), enum)
	}
	if chaosPkg := mp.Package("chaos"); chaosPkg != nil {
		coverage = mapKeyUnion(mp.Pass(chaosPkg), enum)
	}

	for _, m := range enumMembers(enum) {
		type gap struct{ missing, why string }
		var gaps []gap
		if !registry[m.val] {
			gaps = append(gaps, gap{"wire's kind registry (kindNames)",
				"the codec rejects it in both directions"})
		}
		if handlers != nil && !handlers[m.val] {
			gaps = append(gaps, gap{"any wire.Kind switch in internal/core",
				"inbound datagrams of this kind are dropped silently"})
		}
		if coverage != nil && !coverage[m.val] {
			gaps = append(gaps, gap{"the chaos injection-coverage table",
				"the systematic fault sweep does not know how to reach it"})
		}
		for _, gp := range gaps {
			if wirePass.allowed(m.obj.Pos(), "kindsurface") {
				break
			}
			wirePass.Reportf(m.obj.Pos(),
				"wire.Kind %s is missing from %s: %s (or justify with //lint:kindsurface)",
				m.name(), gp.missing, gp.why)
		}
	}
	return nil
}

// lookupEnum finds the named protocol enum type in the package, or
// nil.
func lookupEnum(pkg *Package, typeName string) *types.Named {
	obj := pkg.Pkg.Scope().Lookup(typeName)
	if obj == nil {
		return nil
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		return nil
	}
	return named
}

// mapKeyUnion unions the member values keyed by any map literal over
// the enum in the package.
func mapKeyUnion(pass *Pass, enum *types.Named) map[int64]bool {
	out := make(map[int64]bool)
	for _, ml := range enumMapLiterals(pass) {
		if ml.enum.Obj() != enum.Obj() {
			continue
		}
		for v := range ml.covered {
			out[v] = true
		}
	}
	return out
}

// switchCaseUnion unions the member values named as case labels by
// any switch over the enum in the package.
func switchCaseUnion(pass *Pass, enum *types.Named) map[int64]bool {
	out := make(map[int64]bool)
	for _, sw := range enumSwitches(pass) {
		if sw.enum.Obj() != enum.Obj() {
			continue
		}
		for v := range sw.covered {
			out[v] = true
		}
	}
	return out
}
