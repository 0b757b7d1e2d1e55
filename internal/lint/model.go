package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"
)

// This file is the protocol-surface model shared by the surface
// analyzers (enumswitch, kindsurface, recsurface, tracebudget). Each
// commit protocol added to the repository (2PC → non-blocking →
// Paxos Commit) grows a set of parallel registries that must stay in
// lockstep by hand: wire kinds need codec registry entries, name
// table rows, dispatch handlers, and chaos injection coverage; WAL
// record types need recovery classifier branches. The model gives
// analyzers three primitives:
//
//   - the *enum registry*: which typed constant sets are protocol
//     surfaces, and how to enumerate their members;
//   - *surface discovery*: the switch statements and map literals
//     that consume an enum, with the member set each one covers;
//   - a *file-scope call graph*: one level of helper indirection, so
//     a default branch that panics inside a local helper, or a send
//     wrapped in a stamping helper, is still recognized.

// protocolEnums registers the typed constant sets that form the
// protocol surface, keyed by the defining package's path tail (so the
// real camelot/internal/wire and a testdata stand-in named wire both
// match). Adding a protocol enum here puts every switch and map
// literal over it under exhaustiveness analysis.
var protocolEnums = map[string][]string{
	"wire": {"Kind", "Vote", "Outcome", "NBState", "Protocol"},
	"wal":  {"RecType"},
}

// pathTail reports whether an import path is, or ends in, the tail —
// the package-path analogue of pkgTail.
func pathTail(path, tail string) bool {
	return path == tail || strings.HasSuffix(path, "/"+tail)
}

// protocolEnumOf resolves t to a registered protocol enum type, or
// nil. Aliases are looked through by go/types before we ever see the
// type; pointers and other composites are not enums.
func protocolEnumOf(t types.Type) *types.Named {
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return nil
	}
	for tail, typeNames := range protocolEnums {
		if !pathTail(obj.Pkg().Path(), tail) {
			continue
		}
		for _, name := range typeNames {
			if obj.Name() == name {
				return named
			}
		}
	}
	return nil
}

// enumMember is one constant of a protocol enum.
type enumMember struct {
	obj *types.Const
	val int64
}

func (m enumMember) name() string { return m.obj.Name() }

// enumMembers enumerates the enum's package-level constants in value
// order, excluding the zero sentinel (KInvalid, VoteInvalid,
// RecInvalid, ...): the zero value is the codec's reject marker and
// the uninitialized-memory guard, never a live protocol member that
// surfaces must handle.
func enumMembers(enum *types.Named) []enumMember {
	scope := enum.Obj().Pkg().Scope()
	var out []enumMember
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), enum) {
			continue
		}
		val, exact := constant.Int64Val(c.Val())
		if !exact || val == 0 {
			continue
		}
		out = append(out, enumMember{obj: c, val: val})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].val != out[j].val {
			return out[i].val < out[j].val
		}
		return out[i].name() < out[j].name()
	})
	return out
}

// enumName renders the enum as pkgtail.Type for diagnostics.
func enumName(enum *types.Named) string {
	path := enum.Obj().Pkg().Path()
	if i := strings.LastIndex(path, "/"); i >= 0 {
		path = path[i+1:]
	}
	return path + "." + enum.Obj().Name()
}

// switchSurface is one switch statement whose tag is a protocol enum
// value.
type switchSurface struct {
	stmt    *ast.SwitchStmt
	enum    *types.Named
	covered map[int64]bool
	def     *ast.CaseClause // nil when the switch has no default
}

// enumSwitches finds every switch over a protocol enum in the
// package, with the set of member values its cases name.
func enumSwitches(pass *Pass) []switchSurface {
	var out []switchSurface
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			enum := protocolEnumOf(pass.Info.Types[sw.Tag].Type)
			if enum == nil {
				return true
			}
			s := switchSurface{stmt: sw, enum: enum, covered: make(map[int64]bool)}
			for _, stmt := range sw.Body.List {
				cc, ok := stmt.(*ast.CaseClause)
				if !ok {
					continue
				}
				if cc.List == nil {
					s.def = cc
					continue
				}
				for _, e := range cc.List {
					if v := pass.Info.Types[e].Value; v != nil {
						if val, exact := constant.Int64Val(v); exact {
							s.covered[val] = true
						}
					}
				}
			}
			out = append(out, s)
			return true
		})
	}
	return out
}

// mapSurface is one composite map literal keyed by a protocol enum.
type mapSurface struct {
	lit     *ast.CompositeLit
	enum    *types.Named
	covered map[int64]bool
}

// enumMapLiterals finds every map literal keyed by a protocol enum,
// with the member values its keys name. Nested literals inside a
// matched one are not reported separately.
func enumMapLiterals(pass *Pass) []mapSurface {
	var out []mapSurface
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			mt, ok := pass.Info.Types[lit].Type.Underlying().(*types.Map)
			if !ok {
				return true
			}
			enum := protocolEnumOf(mt.Key())
			if enum == nil {
				return true
			}
			s := mapSurface{lit: lit, enum: enum, covered: make(map[int64]bool)}
			for _, el := range lit.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if v := pass.Info.Types[kv.Key].Value; v != nil {
					if val, exact := constant.Int64Val(v); exact {
						s.covered[val] = true
					}
				}
			}
			out = append(out, s)
			return false
		})
	}
	return out
}

// missingMembers lists the names of members absent from the covered
// set, in declaration-value order.
func missingMembers(enum *types.Named, covered map[int64]bool) []string {
	var out []string
	for _, m := range enumMembers(enum) {
		if !covered[m.val] {
			out = append(out, m.name())
		}
	}
	return out
}

// callGraph is the file-scope call graph: each function or method
// declared in the package, mapped to the objects it calls directly.
// It gives surface rules exactly one level of helper indirection —
// enough to see a loud default that panics inside a local helper, or
// a send routed through a stamping helper, without whole-program
// analysis.
type callGraph struct {
	decls   map[types.Object]*ast.FuncDecl
	callees map[types.Object][]types.Object
}

// buildCallGraph indexes the package's function declarations and
// their direct callees.
func buildCallGraph(pass *Pass) *callGraph {
	g := &callGraph{
		decls:   make(map[types.Object]*ast.FuncDecl),
		callees: make(map[types.Object][]types.Object),
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := pass.Info.Defs[fd.Name]
			if obj == nil {
				continue
			}
			g.decls[obj] = fd
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := calleeObject(pass, call); callee != nil {
					g.callees[obj] = append(g.callees[obj], callee)
				}
				return true
			})
		}
	}
	return g
}

// calleeObject resolves a call to the object it invokes: a function,
// a method, or nil for builtins and dynamic calls.
func calleeObject(pass *Pass, call *ast.CallExpr) types.Object {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return pass.Info.Uses[fun]
	case *ast.SelectorExpr:
		if s := pass.Info.Selections[fun]; s != nil {
			return s.Obj()
		}
		return pass.Info.Uses[fun.Sel]
	}
	return nil
}

// body returns the body of a function declared in this package, or
// nil for imported or interface callees.
func (g *callGraph) body(obj types.Object) *ast.FuncDecl {
	return g.decls[obj]
}

// failsLoudly reports whether the statement list unconditionally
// surfaces an unexpected value instead of absorbing it: it panics,
// exits, or returns an error — directly, or (for panics and exits)
// inside one locally declared helper call.
func (p *Pass) failsLoudly(stmts []ast.Stmt, g *callGraph) bool {
	loud := false
	for _, stmt := range stmts {
		ast.Inspect(stmt, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if callIsLoud(p, n) {
					loud = true
					return false
				}
				if callee := calleeObject(p, n); callee != nil {
					if fd := g.body(callee); fd != nil && funcPanics(p, fd) {
						loud = true
						return false
					}
				}
			case *ast.ReturnStmt:
				for _, res := range n.Results {
					if returnsError(p, res) {
						loud = true
						return false
					}
				}
			}
			return true
		})
		if loud {
			return true
		}
	}
	return false
}

// callIsLoud recognizes the directly loud calls: panic, os.Exit, and
// the log.Fatal family.
func callIsLoud(p *Pass, call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fun.Name == "panic" {
			if _, isBuiltin := p.Info.Uses[fun].(*types.Builtin); isBuiltin || p.Info.Uses[fun] == nil {
				return true
			}
		}
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			switch p.pkgNameOf(id) {
			case "os":
				return fun.Sel.Name == "Exit"
			case "log":
				return strings.HasPrefix(fun.Sel.Name, "Fatal") || strings.HasPrefix(fun.Sel.Name, "Panic")
			}
		}
	}
	return false
}

// funcPanics reports whether the function body contains a direct
// loud call — the one level of indirection failsLoudly follows.
func funcPanics(p *Pass, fd *ast.FuncDecl) bool {
	panics := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && callIsLoud(p, call) {
			panics = true
			return false
		}
		return true
	})
	return panics
}

// returnsError reports whether the returned expression is a non-nil
// error value.
func returnsError(p *Pass, e ast.Expr) bool {
	if id, ok := e.(*ast.Ident); ok && id.Name == "nil" {
		return false
	}
	t := p.Info.Types[e].Type
	if t == nil {
		return false
	}
	return types.Implements(t, errorInterface) ||
		types.Implements(types.NewPointer(t), errorInterface)
}

var errorInterface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
