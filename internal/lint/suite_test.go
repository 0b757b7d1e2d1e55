package lint_test

import (
	"path/filepath"
	"testing"

	"camelot/internal/lint"
)

// TestSuiteCleanOverRepo runs the scoped suite over the real module
// and demands zero findings: every violation is either fixed or
// carries a justified //lint: directive. These are the same two calls
// cmd/camelot-lint makes for ./..., so `go test` and `make lint`
// cannot disagree.
func TestSuiteCleanOverRepo(t *testing.T) {
	modRoot, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := lint.LoadModule(modRoot, "camelot")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := mod.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestScope pins the determinism policy: which analyzer watches which
// package.
func TestScope(t *testing.T) {
	cases := []struct {
		analyzer *lint.Analyzer
		pkg      string
		want     bool
	}{
		{lint.MapRange, "camelot/internal/core", true},
		{lint.MapRange, "camelot/internal/sim", true},
		{lint.MapRange, "camelot/internal/det", false},  // the sanctioned range site
		{lint.MapRange, "camelot/internal/lint", false}, // host-side; sorts its own findings
		{lint.MapRange, "camelot/internal/exp", true},
		{lint.MapRange, "camelot/internal/workload", true}, // a seed names one workload
		{lint.MapRange, "camelot/internal/server", true},
		{lint.MapRange, "camelot/internal/recman", true},
		{lint.MapRange, "camelot/internal/lockmgr", true},
		{lint.MapRange, "camelot/internal/diskman", true},
		{lint.MapRange, "camelot/internal/ctl", true},
		{lint.MapRange, "camelot/internal/wire", true},
		{lint.MapRange, "camelot/cmd/camelot-trace", false},
		{lint.WallTime, "camelot/internal/core", true},
		{lint.WallTime, "camelot/internal/exp", true},
		{lint.WallTime, "camelot/internal/rt", false}, // the real-runtime adapter
		{lint.WallTime, "camelot/cmd/camelot-trace", false},
		{lint.RawGo, "camelot/internal/transport", true},
		{lint.RawGo, "camelot/internal/sim", false}, // the scheduler itself
		{lint.RawGo, "camelot/examples/demo", false},
		{lint.TracePair, "camelot/internal/core", true},
		{lint.TracePair, "camelot/internal/wal", false},
		{lint.EnumSwitch, "camelot/internal/core", true},
		{lint.EnumSwitch, "camelot/internal/oracle", true},
		{lint.EnumSwitch, "camelot/internal/lint", true},
		{lint.EnumSwitch, "camelot/cmd/camelot-trace", false},
		{lint.TraceBudget, "camelot/internal/core", true},
		{lint.TraceBudget, "camelot/internal/transport", false}, // transport IS the counter
		{lint.TraceBudget, "camelot/internal/chaos", false},
	}
	for _, c := range cases {
		if got := lint.InScope(c.analyzer, c.pkg); got != c.want {
			t.Errorf("InScope(%s, %s) = %v, want %v", c.analyzer.Name, c.pkg, got, c.want)
		}
	}
}

// TestModuleAnalyzers pins the cross-package half of the suite: the
// surface analyzers run once per module view, not per package, and
// removing one from the registry should be a deliberate act.
func TestModuleAnalyzers(t *testing.T) {
	want := []string{"kindsurface", "recsurface"}
	if len(lint.ModuleAnalyzers) != len(want) {
		t.Fatalf("ModuleAnalyzers has %d entries, want %d", len(lint.ModuleAnalyzers), len(want))
	}
	for i, ma := range lint.ModuleAnalyzers {
		if ma.Name != want[i] {
			t.Errorf("ModuleAnalyzers[%d] = %s, want %s", i, ma.Name, want[i])
		}
	}
}
