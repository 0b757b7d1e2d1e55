package exp

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateBenchSchema = flag.Bool("update-bench-schema", false,
	"rewrite testdata/bench_schema.golden from the current report shape")

// TestBenchReportSchemaGolden pins the camelot-bench/v1 report shape:
// the schema string, the experiment names and titles, the column
// headers, and the row count of every table. Cell values are host- or
// trial-dependent and deliberately not pinned. A failure here means
// the machine-readable output changed shape — either fix the change
// or bump BenchSchema and regenerate with -update-bench-schema.
func TestBenchReportSchemaGolden(t *testing.T) {
	rep := RunAllJSON(true)

	if rep.Schema != BenchSchema {
		t.Fatalf("Schema = %q, want %q", rep.Schema, BenchSchema)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if !strings.Contains(string(raw), `"schema":"camelot-bench/v1"`) {
		t.Fatalf("serialized report lacks the schema tag: %.120s", raw)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "schema %s\n", rep.Schema)
	for _, tb := range rep.Tables {
		fmt.Fprintf(&b, "table %s | %s | %s | rows=%d\n",
			tb.Name, tb.Title, strings.Join(tb.Header, ", "), len(tb.Rows))
		// BenchTable.Name is documented as the -only name: every table
		// the report emits must be runnable alone under it.
		if _, ok := Find(tb.Name); !ok {
			t.Errorf("report table %q is not an index name (-only would refuse it)", tb.Name)
		}
	}
	got := b.String()

	golden := filepath.Join("testdata", "bench_schema.golden")
	if *updateBenchSchema {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-bench-schema): %v", err)
	}
	if got != string(want) {
		t.Errorf("bench schema drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

// TestIndexNames pins what camelot-bench -only accepts: the index's
// names, each once, the prose-only rows included, nothing else.
func TestIndexNames(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range Names() {
		if seen[name] {
			t.Errorf("index name %q appears twice", name)
		}
		seen[name] = true
	}
	for _, name := range []string{"figure1", "formulas", "ablation-group-commit"} {
		if _, ok := Find(name); !ok {
			t.Errorf("Find(%q) failed; want an index row", name)
		}
	}
	if _, ok := Find("ablations"); ok {
		t.Error(`Find("ablations") succeeded; the report has no table of that name`)
	}
}
