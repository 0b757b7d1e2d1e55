// Command camelot-evidence summarizes the paired benchmark runs that
// `make perf-pairs` leaves in a directory (pair-NN-base.json and
// pair-NN-head.json, each a camelot-perf/v1 output) into one
// camelot-evidence/v1 document: for every workload and end-to-end
// metric BENCHMARK.json names, each side's runs in pair order, their
// medians and quartiles, the change of the head's median, in how many
// pairs the head read lower and higher, and two verdicts.
//
// Usage:
//
//	camelot-evidence -bench BENCHMARK.json -dir .perf-compare > evidence.json
//
// The verdicts follow the benchmark's rules. "verdict" is "worse" when
// the head's median is worse than the base's by more than the metric's
// bound (a fraction of the base median), else "unresolved" when the
// base's own spread (its interquartile range over its median) is wider
// than the bound and not every head run is better than every base run,
// else "ok". "gain" holds when the head was better in at least nine
// tenths of the pairs, ties counting for neither side, and the medians
// differ by more than the base's interquartile range. Quartiles are
// exclusive (the n+1 method). The command exits non-zero if a pair is
// incomplete or a run lacks a workload or metric; it never judges the
// change as a whole.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// benchmark is the part of BENCHMARK.json this command reads.
type benchmark struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []bound `json:"end_to_end"`
}

// bound is one end-to-end metric's entry in BENCHMARK.json: how much
// worse, as a fraction of the base median, it may read.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// run is the part of one camelot-perf/v1 output this command reads.
type run struct {
	Workloads []perfWorkload `json:"workloads"`
}

// perfWorkload is one workload's entry in a camelot-perf/v1 output.
type perfWorkload struct {
	Name      string `json:"name"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	EndToEnd  map[string]struct {
		Value float64 `json:"value"`
	} `json:"end_to_end"`
}

// evidence is the camelot-evidence/v1 document.
type evidence struct {
	Schema    string     `json:"schema"`
	Pairs     int        `json:"pairs"`
	Workloads []workload `json:"workloads"`
}

// workload is one workload's operation counts and metrics.
type workload struct {
	Name          string   `json:"name"`
	BaseAttempted int      `json:"base_attempted"`
	BaseFailed    int      `json:"base_failed"`
	HeadAttempted int      `json:"head_attempted"`
	HeadFailed    int      `json:"head_failed"`
	Metrics       []metric `json:"metrics"`
}

// metric is one end-to-end metric of one workload over every pair.
type metric struct {
	bound
	Base       quartiles `json:"base"`
	Head       quartiles `json:"head"`
	ChangePct  float64   `json:"change_pct"`
	HeadLower  int       `json:"head_lower"`
	HeadHigher int       `json:"head_higher"`
	Verdict    string    `json:"verdict"`
	Gain       bool      `json:"gain"`
	BaseRuns   []float64 `json:"base_runs"`
	HeadRuns   []float64 `json:"head_runs"`
}

// quartiles is one side's median and exclusive quartiles.
type quartiles struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func main() {
	bench := flag.String("bench", "BENCHMARK.json", "the benchmark declaration naming workloads, metrics and bounds")
	dir := flag.String("dir", ".perf-compare", "directory holding pair-NN-base.json and pair-NN-head.json")
	flag.Parse()
	ev, err := collect(*bench, *dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "camelot-evidence:", err)
		os.Exit(1)
	}
	out, err := json.MarshalIndent(ev, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "camelot-evidence:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", out)
}

// collect reads the benchmark declaration and every pair in dir.
func collect(benchPath, dir string) (*evidence, error) {
	var b benchmark
	if err := readJSON(benchPath, &b); err != nil {
		return nil, err
	}
	bases, err := filepath.Glob(filepath.Join(dir, "pair-*-base.json"))
	if err != nil {
		return nil, err
	}
	if len(bases) == 0 {
		return nil, fmt.Errorf("no pair-*-base.json in %s", dir)
	}
	slices.Sort(bases)
	var base, head []*run
	for _, bp := range bases {
		hp := strings.TrimSuffix(bp, "-base.json") + "-head.json"
		var rb, rh run
		if err := readJSON(bp, &rb); err != nil {
			return nil, err
		}
		if err := readJSON(hp, &rh); err != nil {
			return nil, err
		}
		base, head = append(base, &rb), append(head, &rh)
	}
	return summarize(&b, base, head)
}

// readJSON decodes the first JSON value in path: a camelot-perf output
// is its document followed by the driver's summary line.
func readJSON(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close() //nolint:errcheck // read only
	if err := json.NewDecoder(f).Decode(v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// summarize builds the document from runs paired by index.
func summarize(b *benchmark, base, head []*run) (*evidence, error) {
	ev := &evidence{Schema: "camelot-evidence/v1", Pairs: len(base)}
	for _, w := range b.Workloads {
		out := workload{Name: w.Name}
		bv, err := side(b, w.Name, "base", base, &out.BaseAttempted, &out.BaseFailed)
		if err != nil {
			return nil, err
		}
		hv, err := side(b, w.Name, "head", head, &out.HeadAttempted, &out.HeadFailed)
		if err != nil {
			return nil, err
		}
		for i, m := range b.EndToEnd {
			out.Metrics = append(out.Metrics, compare(m, bv[i], hv[i]))
		}
		ev.Workloads = append(ev.Workloads, out)
	}
	return ev, nil
}

// side gathers one side's readings of workload wl, one slice per
// end-to-end metric in the benchmark's order with one value per run,
// and adds up its attempted and failed operations.
func side(b *benchmark, wl, name string, runs []*run, attempted, failed *int) ([][]float64, error) {
	vals := make([][]float64, len(b.EndToEnd))
	for i, r := range runs {
		j := slices.IndexFunc(r.Workloads, func(w perfWorkload) bool { return w.Name == wl })
		if j < 0 {
			return nil, fmt.Errorf("pair %d %s: no workload %q", i+1, name, wl)
		}
		w := r.Workloads[j]
		*attempted += w.Attempted
		*failed += w.Failed
		for k, m := range b.EndToEnd {
			v, ok := w.EndToEnd[m.Name]
			if !ok {
				return nil, fmt.Errorf("pair %d %s: %s has no %s", i+1, name, wl, m.Name)
			}
			vals[k] = append(vals[k], v.Value)
		}
	}
	return vals, nil
}

// compare summarizes one metric's paired runs.
func compare(b bound, base, head []float64) metric {
	m := metric{
		bound: b,
		Base:  quartilesOf(base), Head: quartilesOf(head),
		BaseRuns: base, HeadRuns: head,
	}
	// sign is +1 where a lower reading is better, so that sign×(head −
	// base) < 0 means the head improved.
	sign := 1.0
	if b.Better == "higher" {
		sign = -1
	}
	headBetter := 0
	for i := range base {
		switch {
		case head[i] < base[i]:
			m.HeadLower++
		case head[i] > base[i]:
			m.HeadHigher++
		}
		if sign*(head[i]-base[i]) < 0 {
			headBetter++
		}
	}
	delta := m.Head.Median - m.Base.Median
	if m.Base.Median != 0 {
		m.ChangePct = round(100 * delta / m.Base.Median)
	}
	iqr := m.Base.Q3 - m.Base.Q1
	spread := 0.0
	if iqr > 0 {
		spread = iqr / math.Abs(m.Base.Median)
	}
	allBetter := slices.Max(base) < slices.Min(head)
	if sign > 0 {
		allBetter = slices.Max(head) < slices.Min(base)
	}
	switch {
	case sign*delta > b.Bound*math.Abs(m.Base.Median):
		m.Verdict = "worse"
	case spread > b.Bound && !allBetter:
		m.Verdict = "unresolved"
	default:
		m.Verdict = "ok"
	}
	m.Gain = 10*headBetter >= 9*len(base) && sign*delta < 0 && math.Abs(delta) > iqr
	return m
}

// summary returns the median and exclusive quartiles of xs.
func quartilesOf(xs []float64) quartiles {
	s := slices.Clone(xs)
	slices.Sort(s)
	return quartiles{Median: quantile(s, 2), Q1: quantile(s, 1), Q3: quantile(s, 3)}
}

// quantile returns the i-th quartile of sorted s by the exclusive
// (n+1) method, the default of Python's statistics.quantiles: the
// quartile sits at rank i(n+1)/4, between two neighbours, the lower of
// them held to ranks 1..n-1; i = 2 is the median.
func quantile(s []float64, i int) float64 {
	n := len(s)
	if n == 1 {
		return s[0]
	}
	j := i * (n + 1) / 4
	j = max(1, min(j, n-1))
	delta := float64(i*(n+1) - 4*j)
	return (s[j-1]*(4-delta) + s[j]*delta) / 4
}

// round keeps a percentage to two decimals.
func round(x float64) float64 { return math.Round(100*x) / 100 }
