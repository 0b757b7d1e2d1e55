package main

import (
	"path/filepath"
	"strings"
	"testing"

	"camelot/internal/chaos"
	"camelot/internal/wire"
)

// TestSweepTextReport runs a small bounded sweep end to end through
// the CLI plumbing and checks the human-readable report.
func TestSweepTextReport(t *testing.T) {
	out, failed, err := run(options{sites: 3, seed: 1, txns: 5, points: 4})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if failed {
		t.Fatalf("sweep reported failures:\n%s", out)
	}
	for _, want := range []string{"chaos sweep: 2pc", "enumerated", "zero invariant violations"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestSweepJSONDeterministic pins that two identical CLI invocations
// emit byte-identical JSON reports.
func TestSweepJSONDeterministic(t *testing.T) {
	opts := options{sites: 3, seed: 3, txns: 4, points: 2, jsonOut: true}
	a, _, err := run(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same options, different -json bytes")
	}
	rep, err := chaos.DecodeReport([]byte(a))
	if err != nil {
		t.Fatalf("-json output does not decode: %v", err)
	}
	// One spelling of the protocol, always present.
	if rep.Protocol != wire.TwoPhase || !strings.Contains(a, `"protocol": "2pc"`) || strings.Contains(a, "nonblocking") {
		t.Errorf("report does not name its protocol exactly once:\n%s", a)
	}
}

// TestNetemReplayByteIdentical replays the checked-in netem/v1
// schedule twice through the -netem path and pins that the JSON
// results are byte-identical — the replayability contract the real
// cluster driver leans on when a run needs a simulated post-mortem.
func TestNetemReplayByteIdentical(t *testing.T) {
	opts := options{
		netemFile: filepath.Join("testdata", "netem-lossy.json"),
		sites:     3, seed: 5, txns: 6, jsonOut: true,
	}
	a, failed, err := run(opts)
	if err != nil {
		t.Fatalf("netem replay: %v", err)
	}
	if failed {
		t.Fatalf("netem replay broke invariants:\n%s", a)
	}
	b, _, err := run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same netem schedule, different -json bytes")
	}
	out, _, err := run(options{netemFile: opts.netemFile, sites: 3, seed: 5, txns: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"netem replay", "emulator", "all invariants hold"} {
		if !strings.Contains(out, want) {
			t.Errorf("text report missing %q:\n%s", want, out)
		}
	}
}

// TestReplayCorpusFile replays one of the checked-in §7 repro files
// through the -repro path.
func TestReplayCorpusFile(t *testing.T) {
	repro := filepath.Join("..", "..", "internal", "chaos", "testdata", "orphaned-join.json")
	out, failed, err := run(options{repro: repro})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if failed {
		t.Fatalf("corpus replay failed:\n%s", out)
	}
	if !strings.Contains(out, "all invariants hold") {
		t.Errorf("replay output:\n%s", out)
	}
}
