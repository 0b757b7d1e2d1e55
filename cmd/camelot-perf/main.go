// Command camelot-perf is the repository's benchmark: six workloads
// on a three-site real-runtime cluster in this process, driven at a
// fixed low rate through the public ctl surface, measured end to end
// (untraced) and layer by layer (traced). See README.md.
//
//	go run . -workload all                 # end-to-end metrics, every workload
//	go run . -workload dist-nb -trace      # per-layer metrics and a span file
//	go run . -compare a.json b.json        # two saved outputs against the bounds
//
// The benchmark driver's spelling, from the repository root:
//
//	go -C cmd/camelot-perf run . --workload dist-2pc --seed 7 --seconds 10 --trace 0
//
// The last line of standard output is always one JSON object with the
// keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

const warmup = 2 * time.Second

// document is the full report; -compare reads two of them.
type document struct {
	Schema    string   `json:"schema"`
	Env       env      `json:"env"`
	Seed      int64    `json:"seed"`
	Seconds   int      `json:"seconds"`
	Traced    bool     `json:"traced"`
	Workloads []report `json:"workloads"`
}

// env records what the numbers depend on besides the code.
type env struct {
	NumCPU          int     `json:"nproc"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	GoVersion       string  `json:"go_version"`
	WALDir          string  `json:"wal_dir"`
	WALDirIsMemory  bool    `json:"wal_dir_is_memory"`
	WALDirFsyncUs   float64 `json:"wal_dir_fsync_us"`
	SleepOvershotUs float64 `json:"sleep_250us_overshoot_us"`
}

type report struct {
	Name      string   `json:"name"`
	Why       string   `json:"why"`
	Rate      float64  `json:"rate_per_s"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	EndToEnd  metrics  `json:"end_to_end,omitempty"`
	PerLayer  metrics  `json:"per_layer,omitempty"`
	Warnings  []string `json:"warnings,omitempty"`
	SpanFile  string   `json:"span_file,omitempty"`
}

// summary is the line the benchmark driver reads.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]valueOfUnit `json:"metrics"`
}

type valueOfUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	fs := flag.NewFlagSet("camelot-perf", flag.ExitOnError)
	name := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "seeds arrival times and key choice")
	seconds := fs.Int("seconds", 15, "length of the recorded window")
	trace := fs.Bool("trace", false, "traced run: per-layer metrics, layer probes and a span file (-trace, -trace=1 or -trace 1)")
	out := fs.String("out", filepath.Join(os.TempDir(), "camelot-perf"), "directory for span files")
	compare := fs.Bool("compare", false, "compare two saved outputs: -compare a.json b.json")
	bench := fs.String("bench", "", "BENCHMARK.json for -compare's bounds (default: found from the working directory)")
	fs.Parse(joinTraceValue(os.Args[1:])) //nolint:errcheck // ExitOnError

	if *compare {
		if fs.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two files"))
		}
		worse, err := compareFiles(os.Stdout, *bench, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	var selected []workload
	if *name == "all" {
		selected = workloads
	} else if w, ok := workloadByName(*name); ok {
		selected = []workload{w}
	} else {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}

	scratch, err := makeScratch("/dev/shm", os.TempDir(), ".")
	if err != nil {
		fatal(err)
	}
	doc, err := run(selected, *seed, *seconds, *trace, scratch, *out)
	os.RemoveAll(scratch) //nolint:errcheck // scratch
	if err != nil {
		fatal(err)
	}

	pretty, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", pretty)
	sum := summarize(doc)
	for _, r := range doc.Workloads {
		for _, w := range r.Warnings {
			fmt.Fprintf(os.Stderr, "WARNING %s: %s\n", r.Name, w)
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
	if !sum.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "camelot-perf:", err)
	os.Exit(2)
}

// joinTraceValue lets -trace take its value as a separate argument
// ("--trace 1", the benchmark driver's spelling) although it is a
// boolean flag, which the flag package would only read as "-trace=1".
func joinTraceValue(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			a += "=" + args[i+1]
			i++
		}
		out = append(out, a)
	}
	return out
}

// makeScratch creates the run's private directory under the first
// candidate that allows it. Memory-backed /dev/shm comes first: on
// the sandbox's shared disk an fsync drifts between 150 and 500 µs
// from one minute to the next, which is more than everything else in
// a transaction together.
func makeScratch(candidates ...string) (string, error) {
	var firstErr error
	for _, base := range candidates {
		dir, err := os.MkdirTemp(base, "camelot-perf-")
		if err == nil {
			return filepath.Abs(dir)
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return "", firstErr
}

func run(selected []workload, seed int64, seconds int, traced bool, scratch, outDir string) (*document, error) {
	doc := &document{Schema: "camelot-perf/v1", Seed: seed, Seconds: seconds, Traced: traced}
	var err error
	if doc.Env, err = measureEnv(scratch); err != nil {
		return nil, err
	}
	window := time.Duration(seconds) * time.Second
	for _, w := range selected {
		// An untraced pass times set-up five times for setup_s and
		// bounces once for the verifier; a traced pass sets up once
		// and times five recoveries for recman.recover_s.
		cfg := passConfig{w: w, seed: seed, warmup: warmup, window: window, setups: 5, bounces: 1, scratch: scratch}
		if traced {
			cfg.traced, cfg.setups, cfg.bounces = true, 1, 5
		}
		res, err := runPass(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		rep := report{Name: w.name, Why: w.why, Rate: w.rate,
			Attempted: len(res.samples), Failed: res.failed(), Warnings: warnings(res)}
		rep.Correct = rep.Failed == 0
		if traced {
			rep.PerLayer = perLayer(res)
			if rep.SpanFile, err = writeSpans(outDir, w.name, seed, res.spans); err != nil {
				return nil, err
			}
		} else {
			rep.EndToEnd = endToEnd(res)
		}
		doc.Workloads = append(doc.Workloads, rep)
	}
	if traced {
		// The probes do not depend on the workload; they run once,
		// after every window, and are reported with each workload.
		device, err := makeScratch(os.TempDir(), ".")
		if err != nil {
			return nil, err
		}
		probes := metrics{}
		err = runProbes(probes, scratch, device)
		os.RemoveAll(device) //nolint:errcheck // scratch
		if err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		for _, rep := range doc.Workloads {
			for k, v := range probes {
				rep.PerLayer[k] = v
			}
		}
	}
	return doc, nil
}

// measureEnv records the host properties that shaped the design: the
// timer's overshoot on a short sleep and the WAL directory's fsync.
func measureEnv(scratch string) (env, error) {
	e := env{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		WALDir: scratch, WALDirIsMemory: strings.HasPrefix(scratch, "/dev/shm/"),
	}
	const nap = 250 * time.Microsecond
	naps, err := timeEach(40, func() error { time.Sleep(nap); return nil })
	if err != nil {
		return e, err
	}
	e.SleepOvershotUs = p50us(naps) - float64(nap/time.Microsecond)
	e.WALDirFsyncUs, err = fsyncProbe(scratch, 100)
	return e, err
}

// writeSpans writes one traced workload's spans to
// <dir>/perf-trace-<workload>.json.
func writeSpans(dir, workload string, seed int64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "perf-trace-"+workload+".json")
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// summarize folds the document into the driver's line. With one
// workload the metric names are bare; with several they are prefixed
// "<workload>/".
func summarize(doc *document) summary {
	sum := summary{Correct: true, Metrics: map[string]valueOfUnit{}}
	for _, r := range doc.Workloads {
		sum.Correct = sum.Correct && r.Correct
		sum.Attempted += r.Attempted
		sum.Failed += r.Failed
		prefix := ""
		if len(doc.Workloads) > 1 {
			prefix = r.Name + "/"
		}
		for _, ms := range []metrics{r.EndToEnd, r.PerLayer} {
			for k, v := range ms {
				sum.Metrics[prefix+k] = valueOfUnit{v.Value, v.Unit}
			}
		}
	}
	return sum
}
