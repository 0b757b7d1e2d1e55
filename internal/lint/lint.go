// Package lint is camelot-lint: a suite of static analyzers that
// machine-check the determinism and protocol-invariant rules the
// simulation kernel's byte-identical replay depends on. The rules
// used to live only in reviewers' heads; the deterministic-replay
// test caught one violation dynamically (unordered map iteration in
// core/messaging.go's retry fan-out) and these analyzers make that
// whole bug class impossible to merge.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer, Pass, Report) but is built on the standard library only
// — go/parser plus go/types with a source importer — because this
// repository carries no third-party dependencies.
//
// Analyzers:
//
//   - maprange:  no `for range` over maps in library packages
//     unless the keys go through internal/det or the site carries a
//     `//lint:ordered <why>` justification;
//   - walltime:  no wall-clock reads or global math/rand in simulated
//     packages — virtual clock (rt.Runtime) and seeded sources only;
//   - rawgo:     no raw `go` statements outside the sim/rt kernel,
//     where a goroutine would escape the cooperative scheduler;
//   - tracepair: every wal force in protocol code emits its matching
//     trace.LogForce, and PhaseBegin/PhaseEnd literals pair up, so
//     the paper's budget counters cannot silently drift from the
//     code;
//   - lockorder: no family-lock acquisition in internal/core while
//     the ack or resolved component lock is held — the §3.4 lock
//     hierarchy runs table-shard → family → component, and an
//     inversion deadlocks the real runtime;
//   - enumswitch: every switch or map literal over a protocol enum
//     (wire.Kind, wire.Vote, wire.Outcome, wire.NBState,
//     wire.Protocol, wal.RecType) names all members, or its default
//     fails loudly;
//   - tracebudget: wire.Msg literals carry TID or AckTIDs so the
//     transport can charge each datagram to a family budget, and
//     transport sends come from functions that stamp the sequence
//     counter.
//
// Two further analyzers are cross-package (ModuleAnalyzer): they see
// the whole library at once and run only on whole-module invocations,
// because an absence check over a partial view would lie:
//
//   - kindsurface: every wire.Kind is in the codec registry
//     (kindNames), handled by some internal/core switch, and present
//     in the chaos injection-coverage table;
//   - recsurface:  every wal.RecType is in the record registry
//     (recNames), classified by recman's recovery switch, and
//     produced by some package outside wal/recman.
//
// Each analyzer honors a site-level escape hatch: a `//lint:<name>
// <justification>` comment (alias `//lint:ordered` for maprange) on
// the offending line or the line above suppresses the report. A bare
// directive with no justification text is itself a violation — the
// escape hatch exists to record *why* a site is exempt — and so is a
// directive of a per-package analyzer that suppressed nothing in its
// run: the exemption it records is stale.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"slices"
	"strings"
)

// Analyzer is one static check. Run inspects a single type-checked
// package through its Pass and reports findings with Pass.Reportf.
type Analyzer struct {
	// Name is the analyzer's identifier; it doubles as the directive
	// keyword that suppresses its reports.
	Name string
	// Doc is a one-line description, shown by the driver's usage text.
	Doc string
	// Run performs the analysis. It returns an error only for
	// analyzer-internal failures, never for findings.
	Run func(*Pass) error
}

// Diagnostic is one finding, positioned and attributed.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	// Path is the package's import path (testdata packages use their
	// directory-relative path).
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	diags      *[]Diagnostic
	directives []directive // in source order; nil until first needed
}

type directive struct {
	keyword       string
	justification string
	pos           token.Pos
	file          string
	line          int
	used          bool // it suppressed a finding
}

// directiveRE matches the camelot-lint escape hatch. The justification
// is everything after the keyword.
var directiveRE = regexp.MustCompile(`^//lint:([a-z]+)(?:\s+(.*\S))?\s*$`)

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// buildDirectives scans every comment in the package once.
func (p *Pass) buildDirectives() {
	if p.directives != nil {
		return
	}
	p.directives = []directive{}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := directiveRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				p.directives = append(p.directives, directive{
					keyword: m[1], justification: m[2], pos: c.Pos(), file: pos.Filename, line: pos.Line,
				})
			}
		}
	}
}

// allowed reports whether a finding at pos is suppressed by a
// justified //lint:<keyword> directive on the same line or the line
// immediately above. A directive matching the keyword but lacking a
// justification does not suppress; instead it is reported once, so an
// empty escape hatch cannot silently accumulate. Either way the
// directive is marked used, and reportUnused skips it.
func (p *Pass) allowed(pos token.Pos, keywords ...string) bool {
	p.buildDirectives()
	where := p.Fset.Position(pos)
	for _, line := range []int{where.Line, where.Line - 1} {
		for i := range p.directives {
			d := &p.directives[i]
			if d.file != where.Filename || d.line != line || !slices.Contains(keywords, d.keyword) {
				continue
			}
			d.used = true
			if d.justification == "" {
				p.Reportf(d.pos, "//lint:%s directive needs a justification (say why this site is exempt)", d.keyword)
			}
			return true // a bare directive still suppresses: it is the finding
		}
	}
	return false
}

// reportUnused reports every directive of the pass's analyzer that
// suppressed nothing in its run.
func (p *Pass) reportUnused() {
	p.buildDirectives()
	for _, d := range p.directives {
		owner := d.keyword
		if owner == "ordered" { // maprange's alias
			owner = "maprange"
		}
		if !d.used && owner == p.Analyzer.Name {
			p.Reportf(d.pos, "//lint:%s directive suppresses nothing here; delete it", d.keyword)
		}
	}
}

// pkgNameOf resolves an identifier to the import path of the package
// it names, or "" if the identifier is not a package name.
func (p *Pass) pkgNameOf(id *ast.Ident) string {
	if obj, ok := p.Info.Uses[id]; ok {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn.Imported().Path()
		}
	}
	return ""
}

// calleeMethod resolves a call of the form recv.Method(...) to the
// method's *types.Func, or nil.
func (p *Pass) calleeMethod(call *ast.CallExpr) *types.Func {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s := p.Info.Selections[sel]; s != nil {
		if fn, ok := s.Obj().(*types.Func); ok {
			return fn
		}
		return nil
	}
	// Not a selection: either a package-qualified function or an
	// unresolved identifier.
	if fn, ok := p.Info.Uses[sel.Sel].(*types.Func); ok {
		return fn
	}
	return nil
}

// pkgTail reports whether the object's defining package path is p or
// ends in "/p" — used so the analyzers recognize both the real
// camelot/internal/wal and a testdata stand-in named wal.
func pkgTail(obj types.Object, tail string) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	return path == tail || strings.HasSuffix(path, "/"+tail)
}
