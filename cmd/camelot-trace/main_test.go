package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"camelot/camelot"
	"camelot/internal/wire"
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

// faultRun simulates opts and returns every site's state after the
// drain.
func faultRun(t *testing.T, opts options) []siteState {
	t.Helper()
	r, err := simulate(opts)
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	return siteStates(r, opts.sites)
}

// resolvedAlike fails unless every listed site is up and has resolved
// the transaction the same way: its write applied everywhere or gone
// everywhere, no lock left behind, and no definite outcome that says
// otherwise. An UNKNOWN outcome is a site that resolved and forgot, as
// presumed abort and outcome truncation allow.
func resolvedAlike(t *testing.T, states []siteState, sites ...camelot.SiteID) {
	t.Helper()
	first := states[sites[0]-1]
	for _, id := range sites {
		st := states[id-1]
		switch {
		case st.crashed:
			t.Errorf("site %d: crashed, want it resolved", id)
		case st.locked:
			t.Errorf("site %d: still holds the transaction's lock (in doubt)", id)
		case st.value != first.value:
			t.Errorf("site %d: write present=%v, site %d: %v", id, st.value, first.site, first.value)
		case st.outcome == camelot.OutcomeCommit && !st.value,
			st.outcome == camelot.OutcomeAbort && st.value:
			t.Errorf("site %d: outcome %s contradicts write present=%v", id, st.outcome, st.value)
		}
	}
}

// TestFault2PCCoordinatorCrashBlocks: with the coordinator down for
// good, two-phase commit's prepared subordinates cannot decide. They
// inquire, hold no outcome, and keep the in-doubt write locked.
func TestFault2PCCoordinatorCrashBlocks(t *testing.T) {
	states := faultRun(t, options{sites: 3, seed: 1, fault: "crash-coordinator", faultAfter: 50 * time.Millisecond})
	if !states[0].crashed {
		t.Error("site 1 is up, want it crashed")
	}
	for _, st := range states[1:] {
		if st.inquiries == 0 {
			t.Errorf("site %d: no inquiries, want the blocked subordinate to ask", st.site)
		}
		if st.outcome != camelot.OutcomeUnknown {
			t.Errorf("site %d: outcome %s, want none (blocked)", st.site, st.outcome)
		}
		if !st.locked {
			t.Errorf("site %d: the in-doubt write is unlocked, want it held (blocked)", st.site)
		}
	}
}

// TestFaultCoordinatorCrashDoesNotBlock: the non-blocking protocol
// promotes a survivor, and Paxos Commit at F=1 has one take over; the
// survivors resolve the same way without the coordinator.
func TestFaultCoordinatorCrashDoesNotBlock(t *testing.T) {
	for _, p := range []camelot.Protocol{camelot.NonBlocking, camelot.Paxos} {
		t.Run(p.String(), func(t *testing.T) {
			states := faultRun(t, options{sites: 3, protocol: p, seed: 1,
				fault: "crash-coordinator", faultAfter: 50 * time.Millisecond})
			if states[1].promotions+states[2].promotions == 0 {
				t.Error("no survivor promoted itself")
			}
			resolvedAlike(t, states, 2, 3)
		})
	}
}

// TestFaultEveryScenarioHeals runs each fault under each protocol,
// healed: every site ends resolved the same way, whatever the fault —
// 2PC's blocked subordinates included, once the coordinator recovers.
func TestFaultEveryScenarioHeals(t *testing.T) {
	for _, p := range wire.Protocols() {
		for _, f := range faults[1:] {
			t.Run(p.String()+"/"+f, func(t *testing.T) {
				states := faultRun(t, options{sites: 3, protocol: p, seed: 1, fault: f,
					faultAfter: 50 * time.Millisecond, healAfter: 2 * time.Second})
				resolvedAlike(t, states, 1, 2, 3)
			})
		}
	}
}

// TestFaultRunDeterministic: a fault run replays byte for byte under
// one seed, in both output modes.
func TestFaultRunDeterministic(t *testing.T) {
	for _, jsonOut := range []bool{false, true} {
		opts := options{sites: 3, protocol: camelot.NonBlocking, seed: 7, jsonOut: jsonOut,
			fault: "isolate-sub", faultAfter: 50 * time.Millisecond, healAfter: time.Second}
		a, err := run(opts)
		if err != nil {
			t.Fatalf("first run: %v", err)
		}
		b, err := run(opts)
		if err != nil {
			t.Fatalf("second run: %v", err)
		}
		if a != b {
			t.Errorf("json=%v: same seed produced different fault runs", jsonOut)
		}
	}
}

// TestFaultTextReportsSiteState: the text report of a fault run says
// what the client got back and ends with each site's state.
func TestFaultTextReportsSiteState(t *testing.T) {
	out, err := run(options{sites: 3, seed: 1, fault: "crash-coordinator", faultAfter: 50 * time.Millisecond})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{
		"fault: crash-coordinator (site 1) 50.0 ms after the commit call, never healed",
		"commit-transaction returned",
		"Site state after the drain:",
		"  site1   yes\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("fault report missing %q", want)
		}
	}
}

// TestRunRejectsBadFault: an unknown -fault name is refused naming
// the valid ones, and any fault on a one-site cluster is refused, both
// before anything runs.
func TestRunRejectsBadFault(t *testing.T) {
	_, err := run(options{sites: 3, seed: 1, fault: "crash-coord"})
	if err == nil || !strings.Contains(err.Error(), strings.Join(faults, ", ")) {
		t.Errorf("run with -fault crash-coord: err = %v, want one naming every fault", err)
	}
	if _, err := run(options{sites: 1, seed: 1, fault: "crash-sub"}); err == nil {
		t.Error("run with -fault crash-sub -sites 1 succeeded, want error")
	}
}
