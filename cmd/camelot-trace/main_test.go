package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"camelot/camelot"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestJSONGolden pins the -json report byte-for-byte: the simulation
// is deterministic under a fixed seed, so any drift in the event
// timeline, the counters, or the report schema shows up as a golden
// diff. Regenerate deliberately with: go test ./cmd/camelot-trace -update
func TestJSONGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts options
	}{
		{"trace-2pc.json", options{sites: 3, seed: 1, jsonOut: true}},
		{"trace-nb.json", options{sites: 3, protocol: camelot.NonBlocking, seed: 1, jsonOut: true}},
		{"trace-paxos.json", options{sites: 3, protocol: camelot.Paxos, seed: 1, jsonOut: true}},
		{"trace-2pc-lossy.json", options{sites: 3, seed: 1, loss: 0.25, jsonOut: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := run(tc.opts)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			golden := filepath.Join("testdata", tc.name)
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatalf("update golden: %v", err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("-json output differs from %s (%d vs %d bytes); rerun with -update if the change is intended",
					golden, len(got), len(want))
			}
		})
	}
}

// TestTextReport checks the human-readable mode end to end: Figure 1,
// the timeline, and both counter tables are present and the pinned
// two-phase budget numbers appear.
func TestTextReport(t *testing.T) {
	out, err := run(options{sites: 3, seed: 1})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{
		"Figure 1: Execution of a Transaction",
		"Event timeline:",
		"LogForce",
		"Per-site counters:",
		"budget per site:",
		"Phase latencies (ms):",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text report missing %q", want)
		}
	}
}

// TestRunRejectsBadSiteCount covers the flag validation path.
func TestRunRejectsBadSiteCount(t *testing.T) {
	if _, err := run(options{sites: 0, seed: 1}); err == nil {
		t.Error("run with -sites 0 succeeded, want error")
	}
}

// TestRunRejectsUnknownProtocol: -protocol names are refused by the
// flag parser (wire.ParseProtocol); a value outside the enum that
// reaches run anyway must fail rather than trace some other protocol.
func TestRunRejectsUnknownProtocol(t *testing.T) {
	if _, err := run(options{sites: 3, seed: 1, protocol: 9}); err == nil {
		t.Error("run with protocol 9 succeeded, want error")
	}
}

// TestPaxosReplayDeterministic pins replayability itself: two runs of
// the paxos trace under the same seed must agree byte for byte.
func TestPaxosReplayDeterministic(t *testing.T) {
	opts := options{sites: 3, protocol: camelot.Paxos, seed: 7, jsonOut: true}
	a, err := run(opts)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := run(opts)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if a != b {
		t.Error("same seed produced different paxos traces")
	}
}

// TestLossyTraceShowsRecoveryMachinery checks the -loss mode actually
// exercises what a fault-free trace cannot: under seeded loss the
// report must carry retransmits (and the retry/backoff events that
// produced them), while the zero-loss goldens above stay byte-identical
// because the counters are omitempty and round 0 fires at exactly the
// base interval.
func TestLossyTraceShowsRecoveryMachinery(t *testing.T) {
	out, err := run(options{sites: 3, seed: 1, loss: 0.25, jsonOut: true})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{`"retransmits"`, `Retry`} {
		if !strings.Contains(out, want) {
			t.Errorf("lossy report missing %s", want)
		}
	}
	clean, err := run(options{sites: 3, seed: 1, jsonOut: true})
	if err != nil {
		t.Fatalf("fault-free run: %v", err)
	}
	if strings.Contains(clean, `"retransmits"`) {
		t.Error("fault-free report contains retransmits; zero retries regressed")
	}
}

// TestRunRejectsBadLoss covers -loss validation.
func TestRunRejectsBadLoss(t *testing.T) {
	if _, err := run(options{sites: 3, seed: 1, loss: 1.5}); err == nil {
		t.Error("run with -loss 1.5 succeeded, want error")
	}
}
