package main

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// The fixture in testdata is four pairs of camelot-perf/v1 outputs
// over two workloads and three metrics, chosen so that each verdict,
// a tie, the nine-tenths rule and a failed operation all show; the
// expected figures below are worked by hand.
func TestEvidenceFromFixturePairs(t *testing.T) {
	ev, err := collect("testdata/bench.json", "testdata")
	if err != nil {
		t.Fatal(err)
	}
	if ev.Schema != "camelot-evidence/v1" || ev.Pairs != 4 || len(ev.Workloads) != 2 {
		t.Fatalf("schema %q, %d pairs, %d workloads; want camelot-evidence/v1, 4, 2", ev.Schema, ev.Pairs, len(ev.Workloads))
	}
	w1, w2 := ev.Workloads[0], ev.Workloads[1]
	if w1.Name != "w1" || w1.BaseAttempted != 400 || w1.BaseFailed != 0 || w1.HeadAttempted != 400 || w1.HeadFailed != 1 {
		t.Errorf("w1 operations = %+v, want 400 attempted a side and one head failure", w1)
	}
	want := map[string]metric{
		// Head lower in 3 pairs and tied in one: better in 3 of 4, short
		// of nine tenths, so no gain although the median fell 17 %.
		"w1/lat_ms": {
			Base: quartiles{Median: 11.5, Q1: 10.25, Q3: 12.75}, Head: quartiles{Median: 9.5, Q1: 8.25, Q3: 10.75},
			ChangePct: -17.39, HeadLower: 3, HeadHigher: 0, Verdict: "ok", Gain: false,
		},
		// A higher-is-better metric that read lower once; the medians
		// agree and the base never spread.
		"w1/goodput": {
			Base: quartiles{Median: 100, Q1: 100, Q3: 100}, Head: quartiles{Median: 100, Q1: 99.25, Q3: 100},
			ChangePct: 0, HeadLower: 1, HeadHigher: 0, Verdict: "ok", Gain: false,
		},
		// Lower in every pair, by far more than the base's IQR: a gain.
		"w1/heap_mb": {
			Base: quartiles{Median: 6.7, Q1: 6.6925, Q3: 6.7075}, Head: quartiles{Median: 6.3, Q1: 6.2925, Q3: 6.3075},
			ChangePct: -5.97, HeadLower: 4, HeadHigher: 0, Verdict: "ok", Gain: true,
		},
		// 30 % slower against a 25 % bound.
		"w2/lat_ms": {
			Base: quartiles{Median: 10, Q1: 10, Q3: 10}, Head: quartiles{Median: 13, Q1: 13, Q3: 13},
			ChangePct: 30, HeadLower: 0, HeadHigher: 4, Verdict: "worse", Gain: false,
		},
		// The base spreads 15 % against a 2 % bound and one base run
		// beats every head run: unresolved.
		"w2/goodput": {
			Base: quartiles{Median: 100, Q1: 92.5, Q3: 107.5}, Head: quartiles{Median: 101, Q1: 101, Q3: 101},
			ChangePct: 1, HeadLower: 1, HeadHigher: 3, Verdict: "unresolved", Gain: false,
		},
		"w2/heap_mb": {
			Base: quartiles{Median: 5, Q1: 5, Q3: 5}, Head: quartiles{Median: 5, Q1: 5, Q3: 5},
			ChangePct: 0, HeadLower: 0, HeadHigher: 0, Verdict: "ok", Gain: false,
		},
	}
	for _, w := range ev.Workloads {
		if len(w.Metrics) != 3 {
			t.Fatalf("%s: %d metrics, want 3", w.Name, len(w.Metrics))
		}
		for _, m := range w.Metrics {
			key := w.Name + "/" + m.Name
			exp := want[key]
			if len(m.BaseRuns) != 4 || len(m.HeadRuns) != 4 {
				t.Errorf("%s: %d base and %d head runs, want 4 each", key, len(m.BaseRuns), len(m.HeadRuns))
			}
			if !near(m.Base, exp.Base) || !near(m.Head, exp.Head) {
				t.Errorf("%s: base %+v head %+v, want %+v and %+v", key, m.Base, m.Head, exp.Base, exp.Head)
			}
			if m.ChangePct != exp.ChangePct || m.HeadLower != exp.HeadLower || m.HeadHigher != exp.HeadHigher ||
				m.Verdict != exp.Verdict || m.Gain != exp.Gain {
				t.Errorf("%s: change %v%%, lower %d, higher %d, %s, gain %v; want %v%%, %d, %d, %s, %v", key,
					m.ChangePct, m.HeadLower, m.HeadHigher, m.Verdict, m.Gain,
					exp.ChangePct, exp.HeadLower, exp.HeadHigher, exp.Verdict, exp.Gain)
			}
		}
	}
	if got := w2.Metrics[0].BaseRuns; !reflect.DeepEqual(got, []float64{10, 10, 10, 10}) {
		t.Errorf("w2 lat_ms base runs = %v", got)
	}
}

func near(a, b quartiles) bool {
	eq := func(x, y float64) bool { return math.Abs(x-y) < 1e-9 }
	return eq(a.Median, b.Median) && eq(a.Q1, b.Q1) && eq(a.Q3, b.Q3)
}

// TestQuartilesAreExclusive pins the quartile method against the
// values Python's statistics.quantiles gives for the same data.
func TestQuartilesAreExclusive(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want quartiles
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, quartiles{Q1: 2.75, Median: 5.5, Q3: 8.25}},
		{[]float64{3, 1, 2}, quartiles{Q1: 1, Median: 2, Q3: 3}},
		{[]float64{1, 2}, quartiles{Q1: 0.75, Median: 1.5, Q3: 2.25}},
		{[]float64{7}, quartiles{Q1: 7, Median: 7, Q3: 7}},
	} {
		if got := quartilesOf(c.xs); !near(got, c.want) {
			t.Errorf("quartilesOf(%v) = %+v, want %+v", c.xs, got, c.want)
		}
	}
}

// A pair without its other half, or a run missing a workload or a
// metric, is refused by name rather than summarized short.
func TestIncompletePairsAreRefused(t *testing.T) {
	dir := t.TempDir()
	copyFile := func(name string) {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	copyFile("pair-01-base.json")
	if _, err := collect("testdata/bench.json", dir); err == nil || !strings.Contains(err.Error(), "pair-01-head.json") {
		t.Errorf("a base without its head: %v, want an error naming pair-01-head.json", err)
	}
	copyFile("pair-01-head.json")
	bench := filepath.Join(dir, "bench.json")
	if err := os.WriteFile(bench, []byte(`{"workloads":[{"name":"w3"}],"end_to_end":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := collect(bench, dir); err == nil || !strings.Contains(err.Error(), `"w3"`) {
		t.Errorf("an unknown workload: %v, want an error naming it", err)
	}
	if err := os.WriteFile(bench, []byte(`{"workloads":[{"name":"w1"}],"end_to_end":[{"name":"p99_ms"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := collect(bench, dir); err == nil || !strings.Contains(err.Error(), "p99_ms") {
		t.Errorf("an unknown metric: %v, want an error naming it", err)
	}
	if _, err := collect("testdata/bench.json", t.TempDir()); err == nil {
		t.Error("an empty directory summarized without error")
	}
}
