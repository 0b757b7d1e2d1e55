package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		sorted []float64
		p      float64
		want   float64
	}{
		{ten, 50, 5}, {ten, 90, 9}, {ten, 99, 10}, {ten, 100, 10}, {ten, 10, 1}, {ten, 1, 1},
		{[]float64{7}, 50, 7}, {[]float64{7}, 99, 7},
		{[]float64{1, 2, 3}, 50, 2}, {[]float64{1, 2, 3}, 90, 3}, {[]float64{1, 2, 3}, 33, 1},
		{[]float64{1, 2, 3, 4}, 50, 2}, {[]float64{1, 2, 3, 4}, 75, 3}, {[]float64{1, 2, 3, 4}, 76, 4},
		{nil, 50, 0},
	} {
		if got := percentile(tc.sorted, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.sorted, tc.p, got, tc.want)
		}
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of unsorted input = %v, want 5", got)
	}
}

// planFor builds both sessions' warm-up and recorded plans as runPass does.
func planFor(w workload, seed int64) [][]op {
	m := newShardMap()
	pre := preloadKeySet(m)
	var out [][]op
	for s := 0; s < numSessions; s++ {
		rng := sessionRNG(seed, s)
		warm := plan(w, rng, m, pre, s, 0, 200*time.Millisecond)
		out = append(out, warm, plan(w, rng, m, pre, s, len(warm), time.Second))
	}
	return out
}

func TestSameSeedSamePlan(t *testing.T) {
	for _, w := range workloads {
		a, b := planFor(w, 42), planFor(w, 42)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different arrival offsets or keys", w.name)
		}
		if reflect.DeepEqual(a, planFor(w, 43)) {
			t.Errorf("%s: a different seed gave the same plan", w.name)
		}
	}
}

func TestPlanShape(t *testing.T) {
	m := newShardMap()
	seen := map[string]bool{}
	for _, w := range workloads {
		recorded := 0
		for i, ops := range planFor(w, 1) {
			if i%2 == 1 {
				recorded += len(ops)
			}
			if !sort.SliceIsSorted(ops, func(a, b int) bool { return ops[a].due < ops[b].due }) {
				t.Errorf("%s: arrivals not ascending", w.name)
			}
			for _, o := range ops {
				if len(o.parts) != w.sites {
					t.Fatalf("%s: %d participants, want %d", w.name, len(o.parts), w.sites)
				}
				for p, site := range o.parts {
					if len(o.keys[p]) != w.perSite {
						t.Fatalf("%s: %d keys at a site, want %d", w.name, len(o.keys[p]), w.perSite)
					}
					for _, k := range o.keys[p] {
						if got := int(m.SiteOf(k)) - 1; got != site {
							t.Fatalf("%s: key %q homes at site %d, planned for %d", w.name, k, got, site)
						}
						if !w.read && seen[w.name+k] {
							t.Fatalf("%s: written key %q planned twice", w.name, k)
						}
						seen[w.name+k] = true
					}
				}
			}
		}
		// The count is fixed by the rate, not drawn: goodput must not
		// inherit a Poisson count's spread.
		if want := int(w.rate); recorded != want {
			t.Errorf("%s: %d recorded transactions in 1 s, want %d", w.name, recorded, want)
		}
	}
}

func TestJoinTraceValue(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"--workload dist-nb --seed 3 --seconds 10 --trace 1", "--workload dist-nb --seed 3 --seconds 10 --trace=1"},
		{"--trace 0 --seed 1", "--trace=0 --seed 1"},
		{"-trace -seed 1", "-trace -seed 1"},
		{"-seed 1 -trace", "-seed 1 -trace"},
	} {
		if got := strings.Join(joinTraceValue(strings.Fields(tc.in)), " "); got != tc.want {
			t.Errorf("joinTraceValue(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := bound{Better: "lower", Bound: 0.10}
	higher := bound{Better: "higher", Bound: 0.02}
	for _, tc := range []struct {
		change float64
		bd     bound
		want   string
	}{
		{0.05, lower, "ok"}, {0.11, lower, "worse"}, {-0.11, lower, "better"},
		{-0.01, higher, "ok"}, {-0.03, higher, "worse"}, {0.03, higher, "better"},
	} {
		if got := judge(tc.change, tc.bd); got != tc.want {
			t.Errorf("judge(%v, %s %v) = %s, want %s", tc.change, tc.bd.Better, tc.bd.Bound, got, tc.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any, trailer string) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, append(b, trailer...), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// A redirected standard output: the document, then the driver's line.
	const driverLine = "\n{\"correct\":true}\n"
	doc := func(p50, goodput float64) document {
		return document{Workloads: []report{{Name: "dist-2pc", Correct: true, EndToEnd: metrics{
			"txn_p50_ms":    {Value: p50, Unit: "ms"},
			"goodput_ops_s": {Value: goodput, Unit: "1/s"},
		}}}}
	}
	bench := write("BENCHMARK.json", benchmarkFile{EndToEnd: []bound{
		{Name: "txn_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
		{Name: "goodput_ops_s", Unit: "1/s", Better: "higher", Bound: 0.02},
	}}, "")
	base := write("a.json", doc(0.30, 300), driverLine)
	for _, tc := range []struct {
		name      string
		p50, good float64
		worse     bool
		want      string
	}{
		{"same", 0.31, 299, false, "ok"},
		{"slower", 0.35, 300, true, "worse"},
		{"starved", 0.30, 280, true, "worse"},
		{"faster", 0.20, 300, false, "better"},
	} {
		var out bytes.Buffer
		worse, err := compareFiles(&out, bench, base, write(tc.name+".json", doc(tc.p50, tc.good), driverLine))
		if err != nil {
			t.Fatal(err)
		}
		if worse != tc.worse || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: worse=%v, want %v; output:\n%s", tc.name, worse, tc.worse, out.String())
		}
	}
}

// smokeConfig is a short pass on the real runtime.
func smokeConfig(t *testing.T, w workload, traced bool) passConfig {
	t.Helper()
	scratch, err := makeScratch("/dev/shm", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(scratch) })
	return passConfig{w: w, seed: 1, warmup: 100 * time.Millisecond, window: time.Second,
		setups: 1, bounces: 1, traced: traced, scratch: scratch}
}

// TestBudgets pins today's per-transaction budgets on the real
// runtime: flushes (wal.Store.Append calls) exactly, and the Log's own
// device-write counter, which claims a third as many.
func TestBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload on a real cluster")
	}
	t.Parallel()
	want := map[string]struct{ flushes, deviceWrites float64 }{
		"dist-2pc": {6, 2}, "dist-nb": {9, 4}, "dist-paxos": {9, 4},
		"local-update": {2, 1}, "dist-readonly": {0, 0}, "wide-2pc": {30, 3},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			res, err := runPass(smokeConfig(t, w, false))
			if err != nil {
				t.Fatal(err)
			}
			if res.failed() != 0 || len(res.samples) != int(w.rate) {
				t.Fatalf("%d of %d transactions failed (verifier mismatches %d)", res.failed(), len(res.samples), res.mismatch)
			}
			commits := float64(res.count(committed))
			if got := float64(res.delta.storeAppends) / commits; got != want[w.name].flushes {
				t.Errorf("flushes per transaction = %v, want exactly %v", got, want[w.name].flushes)
			}
			if got := math.Round(float64(res.delta.deviceWrites) / commits); got != want[w.name].deviceWrites {
				t.Errorf("wal.Log device writes per transaction = %v, want %v", got, want[w.name].deviceWrites)
			}
			e2e := endToEnd(res)
			for name, m := range e2e {
				if m.Value <= 0 || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %v: an end-to-end metric must be positive on every workload", name, m.Value)
				}
			}
			if w.sites == 1 && res.delta.sent != 0 {
				t.Errorf("local-update sent %d datagrams, want none", res.delta.sent)
			}
		})
	}
}

// TestVerifierCatchesLostWrite checks that the verifier can fail: a
// transaction the client believes committed but whose key is absent,
// and an aborted one whose key is present, are both mismatches.
func TestVerifierCatchesLostWrite(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a real cluster")
	}
	t.Parallel()
	w, _ := workloadByName("local-update")
	cfg := smokeConfig(t, w, false)
	m := newShardMap()
	pre := preloadKeySet(m)
	c, _, err := setUp(cfg, pre)
	if err != nil {
		t.Fatal(err)
	}
	defer c.stop()
	ops := plan(w, sessionRNG(1, 0), m, pre, 0, 0, 20*time.Millisecond)
	s, err := dialSession(0, w, c)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	samples := s.run(ops, time.Now(), false)
	if got := verify(c, w, [][]op{ops}, [][]sample{samples}); got != 0 {
		t.Fatalf("honest run: %d mismatches", got)
	}
	lost := ops[0]
	lost.keys = [][]string{{"never-written-" + lost.keys[0][0]}}
	if got := verify(c, w, [][]op{{lost}}, [][]sample{{{result: committed}}}); got != 1 {
		t.Errorf("lost committed write: %d mismatches, want 1", got)
	}
	if got := verify(c, w, [][]op{ops[:1]}, [][]sample{{{result: aborted}}}); got != 1 {
		t.Errorf("aborted write that is present: %d mismatches, want 1", got)
	}
}

// TestBenchmarkFileMatchesOutput holds BENCHMARK.json to what the
// program prints: the same workloads, the same end-to-end metrics from
// an untraced pass, the same per-layer metrics from a traced one.
func TestBenchmarkFileMatchesOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a traced pass and the layer probes")
	}
	t.Parallel()
	bf, err := loadBenchmark("")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}

	w, _ := workloadByName("dist-2pc")
	cfg := smokeConfig(t, w, true)
	res, err := runPass(cfg)
	if err != nil {
		t.Fatal(err)
	}
	layers := perLayer(res)
	if err := runProbes(layers, cfg.scratch, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		kind   string
		listed []bound
		got    metrics
	}{{"end_to_end", bf.EndToEnd, endToEnd(res)}, {"per_layer", bf.PerLayer, layers}} {
		listed := map[string]string{}
		for _, b := range tc.listed {
			listed[b.Name] = b.Unit
		}
		for name, m := range tc.got {
			if unit, ok := listed[name]; !ok {
				t.Errorf("%s: program prints %s, BENCHMARK.json does not list it", tc.kind, name)
			} else if unit != m.Unit {
				t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", tc.kind, name, m.Unit, unit)
			}
			delete(listed, name)
		}
		for name := range listed {
			t.Errorf("%s: BENCHMARK.json lists %s, program does not print it", tc.kind, name)
		}
	}
	// Every other transaction is traced: each of its ctl calls is a
	// span under the transaction's span; store appends are unparented.
	parents := map[int64]string{}
	for _, s := range res.spans {
		if s.Name == "txn" {
			parents[s.ID] = s.Txn
		}
	}
	if len(parents) != len(res.samples)/2 {
		t.Errorf("%d txn spans for %d transactions, want every other one", len(parents), len(res.samples))
	}
	for _, s := range res.spans {
		switch {
		case s.End < s.Start:
			t.Fatalf("span %+v ends before it starts", s)
		case strings.HasPrefix(s.Name, "ctl.") && parents[s.Parent] != s.Txn:
			t.Fatalf("span %+v does not hang from its transaction's span", s)
		case s.Name == "wal.store_append" && s.Parent != 0:
			t.Fatalf("store append span %+v has a parent", s)
		}
	}
}
