package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package, ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Root maps an import-path prefix onto a directory. The main driver
// uses {Prefix: "camelot", Dir: <module root>}; linttest uses
// {Prefix: "", Dir: testdata/src} so testdata packages can import each
// other GOPATH-style, exactly as analysistest arranges it.
type Root struct {
	Prefix string
	Dir    string
}

// Loader parses and type-checks packages without the go/packages
// machinery: module-local import paths resolve through Roots, and
// everything else (the standard library) goes through the compiler's
// source importer. All loads share one FileSet and one memo, so a
// package type-checked as a dependency is reused when analyzed
// directly.
type Loader struct {
	Fset  *token.FileSet
	roots []Root
	std   types.Importer
	memo  map[string]*Package
	depth []string // import stack for cycle reporting
}

// NewLoader returns a loader resolving module paths through roots.
func NewLoader(roots ...Root) *Loader {
	// Standard-library dependencies are type-checked from source, and
	// the source importer consults build.Default; force the pure-Go
	// build so cgo-optional packages (net) never require a C
	// toolchain.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &Loader{
		Fset:  fset,
		roots: roots,
		std:   importer.ForCompiler(fset, "source", nil),
		memo:  make(map[string]*Package),
	}
}

// dirFor resolves an import path to a directory via the roots, or "".
func (l *Loader) dirFor(path string) string {
	for _, r := range l.roots {
		var rel string
		switch {
		case r.Prefix == "":
			rel = path
		case path == r.Prefix:
			rel = "."
		case strings.HasPrefix(path, r.Prefix+"/"):
			rel = strings.TrimPrefix(path, r.Prefix+"/")
		default:
			continue
		}
		dir := filepath.Join(r.Dir, filepath.FromSlash(rel))
		if hasGoFiles(dir) {
			return dir
		}
	}
	return ""
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if isPackageFile(dir, e.Name()) && !e.IsDir() {
			return true
		}
	}
	return false
}

// isPackageFile selects the non-test Go sources of a directory that
// build on the host platform — the same set the compiler would use.
// Build constraints matter: internal/transport carries a
// linux-only sendmmsg/recvmmsg fast path beside its portable stub,
// and parsing both into one package is a redeclaration error.
func isPackageFile(dir, name string) bool {
	if !strings.HasSuffix(name, ".go") ||
		strings.HasSuffix(name, "_test.go") ||
		strings.HasPrefix(name, ".") ||
		strings.HasPrefix(name, "_") {
		return false
	}
	// MatchFile applies //go:build lines and _GOOS/_GOARCH filename
	// suffixes for the default (host) context.
	ok, err := build.Default.MatchFile(dir, name)
	return err == nil && ok
}

// Import implements types.Importer so a Loader can resolve its own
// packages' dependencies.
func (l *Loader) Import(path string) (*types.Package, error) {
	if dir := l.dirFor(path); dir != "" {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Pkg, nil
	}
	return l.std.Import(path)
}

// Load parses and type-checks the package at the given import path.
func (l *Loader) Load(path string) (*Package, error) {
	if pkg, ok := l.memo[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("lint: import cycle: %s", strings.Join(append(l.depth, path), " -> "))
		}
		return pkg, nil
	}
	dir := l.dirFor(path)
	if dir == "" {
		return nil, fmt.Errorf("lint: no Go package for import path %q", path)
	}
	l.memo[path] = nil // cycle marker
	l.depth = append(l.depth, path)
	defer func() { l.depth = l.depth[:len(l.depth)-1] }()

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && isPackageFile(dir, e.Name()) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Fset: l.Fset, Files: files, Pkg: tpkg, Info: info}
	l.memo[path] = pkg
	return pkg, nil
}

// Analyze runs one analyzer over one loaded package, appending
// findings to diags: the analyzer's own, then every //lint: directive
// of its keyword that suppressed none of them.
func Analyze(a *Analyzer, pkg *Package, diags *[]Diagnostic) error {
	pass := &Pass{
		Analyzer: a,
		Path:     pkg.Path,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Pkg,
		Info:     pkg.Info,
		diags:    diags,
	}
	if err := a.Run(pass); err != nil {
		return err
	}
	pass.reportUnused()
	return nil
}

// ModulePackages enumerates every package directory under the module
// root as an import path, skipping testdata, hidden directories, and
// the lint testdata trees. modPath is the module's declared path.
func ModulePackages(modRoot, modPath string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(modRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != modRoot && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if !hasGoFiles(p) {
			return nil
		}
		rel, err := filepath.Rel(modRoot, p)
		if err != nil {
			return err
		}
		if rel == "." {
			out = append(out, modPath)
			return nil
		}
		out = append(out, modPath+"/"+filepath.ToSlash(rel))
		return nil
	})
	sort.Strings(out)
	return out, err
}
