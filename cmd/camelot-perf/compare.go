package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// bound is one end-to-end metric's entry in BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkFile is the part of BENCHMARK.json this program reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []bound `json:"end_to_end"`
	PerLayer []bound `json:"per_layer"`
}

func loadBenchmark(path string) (*benchmarkFile, error) {
	candidates := []string{path}
	if path == "" {
		// The working directory is this package's or the repository's.
		candidates = []string{"BENCHMARK.json", "../../BENCHMARK.json"}
	}
	var firstErr error
	for _, p := range candidates {
		b, err := os.ReadFile(p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var bf benchmarkFile
		if err := json.Unmarshal(b, &bf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &bf, nil
	}
	return nil, firstErr
}

// loadDocument reads a saved output: the first JSON value in the
// file, so that a redirected standard output (document, then the
// driver's line) can be passed as it is.
func loadDocument(path string) (*document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //nolint:errcheck // read only
	var doc document
	if err := json.NewDecoder(f).Decode(&doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// compareFiles prints, for every workload and end-to-end metric both
// outputs hold, the two values, the relative change and the metric's
// bound, marking each ok, worse or better. It reports whether any
// metric got worse by more than its bound.
func compareFiles(w io.Writer, benchPath, aPath, bPath string) (worse bool, err error) {
	bf, err := loadBenchmark(benchPath)
	if err != nil {
		return false, err
	}
	a, err := loadDocument(aPath)
	if err != nil {
		return false, err
	}
	b, err := loadDocument(bPath)
	if err != nil {
		return false, err
	}
	after := map[string]report{}
	for _, r := range b.Workloads {
		after[r.Name] = r
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tchange\tbound\tverdict")
	for _, ra := range a.Workloads {
		rb, ok := after[ra.Name]
		if !ok {
			continue
		}
		if !ra.Correct || !rb.Correct {
			fmt.Fprintf(tw, "%s\tcorrect\t%v\t%v\t\t\tworse\n", ra.Name, ra.Correct, rb.Correct)
			worse = worse || !rb.Correct
		}
		for _, bd := range bf.EndToEnd {
			ma, okA := ra.EndToEnd[bd.Name]
			mb, okB := rb.EndToEnd[bd.Name]
			if !okA || !okB {
				continue
			}
			change := ratio(mb.Value-ma.Value, ma.Value)
			verdict := judge(change, bd)
			worse = worse || verdict == "worse"
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.0f%%\t%s\n",
				ra.Name, bd.Name, ma.Value, mb.Value, 100*change, 100*bd.Bound, verdict)
		}
	}
	return worse, tw.Flush()
}

// judge classifies a relative change against a metric's direction and
// bound.
func judge(change float64, bd bound) string {
	if bd.Better == "higher" {
		change = -change
	}
	switch {
	case change > bd.Bound:
		return "worse"
	case change < -bd.Bound:
		return "better"
	}
	return "ok"
}
