package lint

import (
	"sort"
	"strings"
)

// Analyzers is the per-package camelot-lint suite, in the order the
// driver runs them.
var Analyzers = []*Analyzer{MapRange, WallTime, RawGo, TracePair, LockOrder, EnumSwitch, TraceBudget}

// ModuleAnalyzers are the cross-package protocol-surface checks. They
// see the whole loaded module at once and run only on whole-module
// invocations — over a hand-picked package subset their absence
// checks would report false gaps (a handler that lives in a package
// the subset happens to exclude).
var ModuleAnalyzers = []*ModuleAnalyzer{KindSurface, RecSurface}

// InScope reports whether the analyzer applies to the package. The
// scope rules are the repository's determinism policy:
//
//   - maprange covers every library package — each one is linked into
//     the simulator, whose replay must be byte-identical — except
//     internal/det (the one sanctioned range site) and internal/lint
//     (host-side; it sorts its own findings);
//   - walltime covers every library package — only internal/rt (the
//     real-runtime adapter) and the host-side binaries under cmd/ and
//     examples/ may touch the wall clock;
//   - rawgo covers the same universe minus the scheduler
//     implementations (internal/sim, internal/rt);
//   - tracepair covers the protocol code in internal/core;
//   - lockorder covers internal/core, where the §3.4 two-level lock
//     hierarchy (table-shard → family → component) lives;
//   - enumswitch covers every library package — a switch or map over
//     a protocol enum is a protocol surface wherever it lives;
//   - tracebudget covers internal/core, the only package that builds
//     and sends protocol datagrams.
func InScope(a *Analyzer, pkgPath string) bool {
	switch a {
	case MapRange:
		return inLibrary(pkgPath) &&
			pkgPath != "camelot/internal/det" &&
			pkgPath != "camelot/internal/lint"
	case WallTime:
		return inLibrary(pkgPath) && pkgPath != "camelot/internal/rt"
	case RawGo:
		return inLibrary(pkgPath) &&
			pkgPath != "camelot/internal/rt" &&
			pkgPath != "camelot/internal/sim"
	case TracePair, LockOrder, TraceBudget:
		return pkgPath == "camelot/internal/core"
	case EnumSwitch:
		return inLibrary(pkgPath)
	}
	return false
}

// Module is the whole-module view: every library package parsed and
// type-checked exactly once through one shared loader, ready for both
// the scoped per-package suite and the cross-package module
// analyzers. Loading and analysis are split so the driver can time
// them separately (-time).
type Module struct {
	Path string
	Pkgs []*Package
}

// LoadModule parses and type-checks every library package of the
// module rooted at modRoot.
func LoadModule(modRoot, modPath string) (*Module, error) {
	pkgPaths, err := ModulePackages(modRoot, modPath)
	if err != nil {
		return nil, err
	}
	return loadPackages(modRoot, modPath, pkgPaths)
}

// loadPackages parses and type-checks the library packages among
// pkgPaths through one shared loader (one FileSet, one memo): a
// package type-checked as somebody's dependency is never
// type-checked again as an analysis target.
func loadPackages(modRoot, modPath string, pkgPaths []string) (*Module, error) {
	loader := NewLoader(Root{Prefix: modPath, Dir: modRoot})
	mod := &Module{Path: modPath}
	for _, path := range pkgPaths {
		if !inLibrary(path) {
			continue // host-side binaries: no analyzer or surface lives there
		}
		pkg, err := loader.Load(path)
		if err != nil {
			return nil, err
		}
		mod.Pkgs = append(mod.Pkgs, pkg)
	}
	return mod, nil
}

// Run runs the scoped per-package suite and every module analyzer
// over the loaded view, returning findings sorted by position.
func (m *Module) Run() ([]Diagnostic, error) { return m.run(ModuleAnalyzers) }

// RunPackages runs the scoped per-package suite over the named
// packages of the module rooted at modRoot. Module analyzers are
// deliberately skipped: their absence checks are only meaningful over
// the whole module.
func RunPackages(modRoot, modPath string, pkgPaths []string) ([]Diagnostic, error) {
	mod, err := loadPackages(modRoot, modPath, pkgPaths)
	if err != nil {
		return nil, err
	}
	return mod.run(nil)
}

// run runs the scoped per-package suite, then the given module
// analyzers, and sorts the findings by position.
func (m *Module) run(module []*ModuleAnalyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range m.Pkgs {
		for _, a := range Analyzers {
			if !InScope(a, pkg.Path) {
				continue
			}
			if err := Analyze(a, pkg, &diags); err != nil {
				return nil, err
			}
		}
	}
	for _, ma := range module {
		if err := AnalyzeModule(ma, m.Pkgs, &diags); err != nil {
			return nil, err
		}
	}
	sortDiagnostics(diags)
	return diags, nil
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// inLibrary reports whether the package is part of the library proper
// rather than a host-side binary (cmd/) or runnable doc (examples/).
func inLibrary(pkgPath string) bool {
	if pkgPath != "camelot" && !strings.HasPrefix(pkgPath, "camelot/") {
		return false
	}
	return !strings.HasPrefix(pkgPath, "camelot/cmd/") &&
		!strings.HasPrefix(pkgPath, "camelot/examples/")
}
