package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"

	"camelot/internal/wire"
)

// Options parameterizes a sweep.
type Options struct {
	// Sites is the cluster size (coordinator is site 1).
	Sites int
	// Protocol is the commit protocol the workload runs.
	Protocol wire.Protocol
	// Seed seeds the kernel; every run of the sweep reuses it.
	Seed int64
	// Txns is the workload length.
	Txns int
	// Shards, when positive, shards the keyspace and sweeps the
	// cross-shard workload (see Schedule.Shards).
	Shards int
	// MaxPoints caps how many enumerated injection points the sweep
	// explores (0 = all of them). Points are sampled evenly across
	// the enumeration, so a bounded sweep still covers the whole run.
	MaxPoints int
}

// Failure is one fault schedule that broke an invariant, shrunk to a
// minimal fault set.
type Failure struct {
	Schedule   Schedule `json:"schedule"`
	Violations []string `json:"violations,omitempty"`
	Deadlock   string   `json:"deadlock,omitempty"`
}

// Report is the sweep's full, deterministic account: same options →
// byte-identical EncodeReport output.
type Report struct {
	Version     string        `json:"version"`
	Seed        int64         `json:"seed"`
	Sites       int           `json:"sites"`
	Protocol    wire.Protocol `json:"protocol"`
	Txns        int           `json:"txns"`
	Shards      int           `json:"shards,omitempty"`
	PointsTotal int           `json:"points_total"`
	PointsRun   int           `json:"points_run"`
	Runs        int           `json:"runs"`
	Points      []Point       `json:"points,omitempty"`
	Failures    []Failure     `json:"failures"`
}

// EncodeReport serializes the report as indented JSON with a trailing
// newline; struct-fixed field order keeps it byte-stable.
func EncodeReport(r *Report) ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("chaos: encode report: %w", err)
	}
	return append(b, '\n'), nil
}

// DecodeReport parses a sweep report strictly.
func DecodeReport(b []byte) (*Report, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var r Report
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("chaos: decode report: %w", err)
	}
	return &r, nil
}

// Sweep runs the fault-free pilot, enumerates its injection points,
// and replays the workload once per (point, mode) pair with that one
// fault injected. Every failure is shrunk and collected. progress, if
// non-nil, is called before each run with a human-readable line.
func Sweep(opts Options, progress func(string)) (*Report, error) {
	if opts.Sites < 1 {
		opts.Sites = 3
	}
	if opts.Txns < 1 {
		opts.Txns = 12
	}
	base := Schedule{
		Version:  Version,
		Seed:     opts.Seed,
		Sites:    opts.Sites,
		Protocol: opts.Protocol,
		Txns:     opts.Txns,
		Shards:   opts.Shards,
	}
	say := func(format string, args ...any) {
		if progress != nil {
			progress(fmt.Sprintf(format, args...))
		}
	}

	say("pilot: enumerating injection points (seed %d, %d sites, %v)",
		opts.Seed, opts.Sites, opts.Protocol)
	pilot, err := Run(base)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Version:     Version,
		Seed:        opts.Seed,
		Sites:       opts.Sites,
		Protocol:    opts.Protocol,
		Txns:        opts.Txns,
		Shards:      opts.Shards,
		PointsTotal: len(pilot.Points),
		Failures:    []Failure{},
	}
	rep.Runs++
	if pilot.Failed() {
		// A failing pilot means the workload itself is broken; report
		// it as a failure of the empty schedule and stop.
		rep.Failures = append(rep.Failures, Failure{
			Schedule: base, Violations: pilot.Violations, Deadlock: pilot.Deadlock,
		})
		return rep, nil
	}

	points := samplePoints(pilot.Points, opts.MaxPoints)
	rep.PointsRun = len(points)
	rep.Points = points
	for i, p := range points {
		for _, mode := range p.Modes() {
			s := base
			s.Faults = []Fault{{Class: p.Class, Site: p.Site, Index: p.Index, Mode: mode}}
			say("point %d/%d: %s (%s)", i+1, len(points), s.Faults[0], p.Label)
			r, err := Run(s)
			if err != nil {
				return nil, err
			}
			rep.Runs++
			if !r.Failed() {
				continue
			}
			say("FAIL %s: %d violation(s) — shrinking", s.Faults[0], len(r.Violations))
			min, runs := Shrink(s, func(cand Schedule) bool {
				rr, err := Run(cand)
				return err == nil && rr.Failed()
			})
			rep.Runs += runs
			final, err := Run(min)
			if err != nil {
				return nil, err
			}
			rep.Runs++
			rep.Failures = append(rep.Failures, Failure{
				Schedule: min, Violations: final.Violations, Deadlock: final.Deadlock,
			})
		}
	}
	return rep, nil
}

// samplePoints picks at most max points, evenly spread across the
// enumeration (all of them when max ≤ 0 or nothing to drop).
func samplePoints(points []Point, max int) []Point {
	if max <= 0 || len(points) <= max {
		return points
	}
	out := make([]Point, 0, max)
	for i := 0; i < max; i++ {
		out = append(out, points[i*len(points)/max])
	}
	return out
}
