package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"camelot/internal/ctl"
	"camelot/internal/wire"
)

// nodeBin returns the camelot-node binary, built once per test
// binary, and skips the calling test under -short (every caller
// spawns processes).
func nodeBin(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("spawns processes; skipped in -short")
	}
	bin, err := buildNode()
	if err != nil {
		t.Fatalf("building camelot-node: %v", err)
	}
	return bin
}

// nodeBinDir holds the shared build; TestMain removes it.
var nodeBinDir string

var buildNode = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "camelot-node-bin-*")
	if err != nil {
		return "", err
	}
	nodeBinDir = dir
	return nodeBinary("", dir)
})

// decodeReport round-trips a run's report through its -json form and
// decodes it strictly into the one report type: a field the type does
// not declare, or a schema other than v2, fails the test. It returns
// the decoded report and the set of top-level keys the JSON carried.
func decodeReport(t *testing.T, rep *report) (*report, map[string]json.RawMessage) {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var got report
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("report does not decode strictly into the report type: %v", err)
	}
	if got.Schema != "camelot-cluster/v2" {
		t.Errorf("schema = %q, want camelot-cluster/v2", got.Schema)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(b, &keys); err != nil {
		t.Fatal(err)
	}
	return &got, keys
}

func TestMain(m *testing.M) {
	code := m.Run()
	if nodeBinDir != "" {
		os.RemoveAll(nodeBinDir) //nolint:errcheck // best-effort cleanup
	}
	os.Exit(code)
}

// TestClusterSmoke deploys a real 3-process cluster on loopback,
// pushes a seeded workload through it with a mid-run SIGKILL and
// restart of a subordinate plus a full durability bounce, and
// requires the recovery oracle to find nothing. This is the
// acceptance test for the whole real-network path: camelot-node's
// boot/recover sequence, the control plane, UDP transport between
// processes, on-disk WAL replay, and the oracle over control
// connections. It runs the default layout, one shard per site.
func TestClusterSmoke(t *testing.T) {
	bin := nodeBin(t)

	rep, err := run(config{
		Nodes:   3,
		Txns:    40,
		Seed:    1,
		NodeBin: bin,
		Retry:   25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("oracle violation: %s", v)
	}
	if rep.Committed == 0 {
		t.Error("no transaction committed; the workload exercised nothing")
	}
	if rep.Sent == 0 || rep.Recv == 0 {
		t.Errorf("no real datagrams flowed (sent=%d recv=%d)", rep.Sent, rep.Recv)
	}
	if rep.Oversize != 0 {
		t.Errorf("oversize refusals = %d, want 0", rep.Oversize)
	}
	// One report for every run: no schedule ran, so neither it nor the
	// emulator's tallies appear, while the retry ledger and the deadline
	// count — once the netem report's alone — do.
	got, keys := decodeReport(t, rep)
	for _, k := range []string{"schedule", "emulator", "wal_faults", "notes"} {
		if _, ok := keys[k]; ok {
			t.Errorf("report carries %q though no schedule ran", k)
		}
	}
	for _, k := range []string{"retransmits", "inquiries", "unavailable_calls", "killed_site"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("report lacks %q", k)
		}
	}
	if got.Unavailable != 0 {
		t.Errorf("unavailable_calls = %d on a clean loopback, want 0", got.Unavailable)
	}
	if got.Killed != 3 {
		t.Errorf("killed_site = %d, want 3 (the highest site)", got.Killed)
	}
	if rep.CrossShardCommitted == 0 {
		t.Error("no cross-shard transaction committed; every commit was single-site")
	}
	if rep.ReadOnlyCommitted == 0 {
		t.Error("no committed transaction had a read-only participant; the read-only vote went unexercised")
	}
	t.Logf("outcomes: %d committed (%d cross-shard, %d with a read-only participant), %d aborted, %d unknown, %d skipped; transport: %d sent, %d recv, %d dropped",
		rep.Committed, rep.CrossShardCommitted, rep.ReadOnlyCommitted, rep.Aborted, rep.Unknown, rep.Skipped, rep.Sent, rep.Recv, rep.Dropped)
}

// TestClusterShardedSmoke runs the same workload on an uneven layout —
// 4 shards over 3 sites, so one site hosts two shard servers behind
// one WAL: transactions straddle shards on distinct sites under
// all three commit protocols (the per-txn cycle), a mid-run SIGKILL
// and restart of one site, and the cross-shard atomicity oracle
// checked both live and after the full durability bounce.
func TestClusterShardedSmoke(t *testing.T) {
	bin := nodeBin(t)

	rep, err := run(config{
		Nodes:   3,
		Txns:    40,
		Seed:    1,
		Shards:  4,
		NodeBin: bin,
		Retry:   25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("oracle violation: %s", v)
	}
	if rep.Committed == 0 {
		t.Error("no transaction committed; the workload exercised nothing")
	}
	if rep.CrossShardCommitted == 0 {
		t.Error("no cross-shard transaction committed; the sharded workload exercised nothing")
	}
	if rep.Sent == 0 || rep.Recv == 0 {
		t.Errorf("no real datagrams flowed (sent=%d recv=%d)", rep.Sent, rep.Recv)
	}
	t.Logf("outcomes: %d committed (%d/%d cross-shard), %d aborted, %d unknown, %d skipped",
		rep.Committed, rep.CrossShardCommitted, rep.CrossShard, rep.Aborted, rep.Unknown, rep.Skipped)
}

// TestClusterShardedMidCommitKill aims the SIGKILL at the coordinator
// of a cross-shard transaction on the uneven 4-shards-over-3-sites
// layout: the survivors must resolve their shards (locks
// re-acquirable, pieces agreeing) while the coordinator is still down.
func TestClusterShardedMidCommitKill(t *testing.T) {
	bin := nodeBin(t)

	rep, err := run(config{
		Nodes:         3,
		Txns:          40,
		Seed:          3,
		Shards:        4,
		Protocol:      "paxos",
		NodeBin:       bin,
		KillMidCommit: true,
		Retry:         25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("oracle violation: %s", v)
	}
	if rep.CrossShardCommitted == 0 {
		t.Error("no cross-shard transaction committed; the sharded workload exercised nothing")
	}
}

// TestClusterPaxosSmoke is the real-process acceptance test for Paxos
// Commit's headline property: every commit runs -protocol=paxos at
// F=1, and the fault schedule SIGKILLs the coordinator of an all-site
// transaction while its own commit is in flight. The surviving
// acceptor quorum must resolve the transaction — locks released,
// survivors agreeing — before the coordinator returns, and the oracle
// must find nothing after its WAL-replay restart and the full
// durability bounce.
func TestClusterPaxosSmoke(t *testing.T) {
	bin := nodeBin(t)

	rep, err := run(config{
		Nodes:         3,
		Txns:          40,
		Seed:          2,
		Protocol:      "paxos",
		NodeBin:       bin,
		KillMidCommit: true,
		Retry:         25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("oracle violation: %s", v)
	}
	if rep.Committed == 0 {
		t.Error("no transaction committed; the workload exercised nothing")
	}
	if rep.Sent == 0 || rep.Recv == 0 {
		t.Errorf("no real datagrams flowed (sent=%d recv=%d)", rep.Sent, rep.Recv)
	}
	t.Logf("outcomes: %d committed, %d aborted, %d unknown, %d skipped; transport: %d sent, %d recv, %d dropped",
		rep.Committed, rep.Aborted, rep.Unknown, rep.Skipped, rep.Sent, rep.Recv, rep.Dropped)
}

// TestClusterNBMidCommitKill is TestClusterPaxosSmoke's claim for the
// other protocol that makes it: the coordinator of an all-site
// non-blocking commit is SIGKILLed with the commit in flight, and the
// survivors must resolve it — locks free, pieces agreeing — while it is
// still down. The probe reads each piece under its lock; the one it
// replaced wrote and peeked, and reported its own write as a
// disagreement in 5 runs of 11.
func TestClusterNBMidCommitKill(t *testing.T) {
	bin := nodeBin(t)

	rep, err := run(config{
		Nodes:         3,
		Txns:          2,
		Seed:          1,
		Protocol:      "nb",
		NodeBin:       bin,
		KillMidCommit: true,
		Retry:         25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("oracle violation: %s", v)
	}
	if len(rep.Notes) != 0 {
		t.Errorf("notes = %q; the non-blocking protocol has nothing to excuse", rep.Notes)
	}
}

// TestCluster2PCMidCommitKillBlocks: the same kill under two-phase
// commit leaves the prepared survivors blocked on the dead coordinator,
// which is what 2PC does, not a violation. The run must come back clean
// with the blocked survivors named in the report's notes, and resolve
// them once the heal brings the coordinator back. The kill races the
// commit: when it lands after the survivors resolved, the run has no
// note and no violation, and says nothing either way — such a run is
// inconclusive and the test runs again, up to three times.
func TestCluster2PCMidCommitKillBlocks(t *testing.T) {
	bin := nodeBin(t)

	const runs = 3
	for i := 1; i <= runs; i++ {
		rep, err := run(config{
			Nodes:         3,
			Txns:          1,
			Seed:          1,
			Protocol:      "2pc",
			NodeBin:       bin,
			KillMidCommit: true,
			Retry:         25 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range rep.Violations {
			t.Errorf("oracle violation: %s", v)
		}
		for _, n := range rep.Notes {
			if !strings.HasPrefix(n, "blocked, as 2pc is: ") {
				t.Errorf("note %q does not say blocked", n)
			}
		}
		if t.Failed() {
			return
		}
		if len(rep.Notes) > 0 {
			if _, keys := decodeReport(t, rep); keys["notes"] == nil {
				t.Error(`report lacks "notes"`)
			}
			return
		}
		t.Logf("run %d of %d inconclusive: the kill landed after the survivors resolved", i, runs)
	}
	t.Errorf("no note in %d runs: the survivors of a 2PC coordinator killed mid-commit were never found blocked", runs)
}

// TestClusterHealsBeforeOracle pins the heal step on the shortest
// mid-commit-kill run there is: with one transaction the built-in plan's
// restart (due at index 0) comes before the kill, so the fault phase
// ends with the coordinator dead. The driver used to hand that dead
// site to the oracle — two `view` violations and a `liveness` one on a
// correct cluster. Every run heals first now: the victim is back and
// answering its control port before the first oracle pass.
func TestClusterHealsBeforeOracle(t *testing.T) {
	bin := nodeBin(t)

	rep, err := run(config{
		Nodes:         3,
		Txns:          1,
		Seed:          1,
		Protocol:      "paxos",
		NodeBin:       bin,
		KillMidCommit: true,
		Retry:         25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("oracle violation: %s", v)
	}
	if rep.Txns != 1 || rep.Killed != 3 {
		t.Errorf("ran %d txns, killed site %d; want 1 and 3", rep.Txns, rep.Killed)
	}
}

// TestClusterNetemSmoke replays the smoke netem/v1 schedule against a
// real 3-process cluster: lossy, duplicating, reordering, jittery
// links through the emulator proxies, a one-way partition window, and
// a SIGKILL/restart of site 3 mid-storm. After the heal the oracle
// must find nothing — including after the durability bounce — and the
// retransmit+inquiry total must stay under the pinned budget the
// exponential backoff exists to keep.
func TestClusterNetemSmoke(t *testing.T) {
	bin := nodeBin(t)

	rep, err := run(config{
		Netem:     filepath.Join("testdata", "netem-smoke.json"),
		Nodes:     3,
		Seed:      1,
		NodeBin:   bin,
		Retry:     25 * time.Millisecond,
		RetryCap:  400 * time.Millisecond,
		OpTimeout: 2 * time.Second,
		MaxRetry:  20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("oracle violation: %s", v)
	}
	if rep.Committed == 0 {
		t.Error("no transaction committed through the storm")
	}
	if rep.Emulator.Seen == 0 {
		t.Error("no datagram crossed the emulator; the proxies were not in the path")
	}
	if rep.Emulator.Dropped == 0 {
		t.Error("the lossy schedule dropped nothing; the emulator was inert")
	}
	// The same report type as every other run, with what a schedule adds.
	got, keys := decodeReport(t, rep)
	for _, k := range []string{"schedule", "emulator"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("report lacks %q though a schedule ran", k)
		}
	}
	if got.Schedule == nil || got.Schedule.Seed != 7 || got.Killed != 3 {
		t.Errorf("report names schedule %+v, killed_site %d; want netem-smoke's (seed 7) and site 3", got.Schedule, got.Killed)
	}
	t.Logf("outcomes: %d committed, %d aborted, %d unknown, %d skipped; %d unavailable calls",
		rep.Committed, rep.Aborted, rep.Unknown, rep.Skipped, rep.Unavailable)
	t.Logf("emulator: %d seen, %d dropped (%d cut), %d dupped, %d delayed; %d retransmits, %d inquiries",
		rep.Emulator.Seen, rep.Emulator.Dropped, rep.Emulator.Cut,
		rep.Emulator.Dupped, rep.Emulator.Delayed, rep.Retransmits, rep.Inquiries)
}

// TestClusterFrozenNodeDeadline is the real-process SIGSTOP
// regression: a control call against a frozen (not dead) camelot-node
// must come back as ctl.ErrUnavailable within the deadline rather
// than hang, and a Reconnect after SIGCONT must restore service.
func TestClusterFrozenNodeDeadline(t *testing.T) {
	bin := nodeBin(t)

	p, err := spawn(bin, 1, filepath.Join(t.TempDir(), "site1.wal"),
		"127.0.0.1:0", "127.0.0.1:0", 25*time.Millisecond, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer p.stop()

	if _, err := p.client.Ping(); err != nil {
		t.Fatalf("ping before freeze: %v", err)
	}
	if err := p.cmd.Process.Signal(syscall.SIGSTOP); err != nil {
		t.Fatal(err)
	}
	// Signal only posts the stop; an already-running server thread can
	// serve one more round trip before the group stop lands. Wait for
	// the process to actually reach the stopped state.
	waitStopped(t, p.cmd.Process.Pid)
	start := time.Now()
	_, err = p.client.Ping()
	elapsed := time.Since(start)
	if !errors.Is(err, ctl.ErrUnavailable) {
		t.Fatalf("ping against frozen node = %v, want ErrUnavailable", err)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("deadline took %v; the freeze was not bounded", elapsed)
	}
	if !p.client.Broken() {
		t.Fatal("connection not poisoned after the deadline")
	}
	if err := p.cmd.Process.Signal(syscall.SIGCONT); err != nil {
		t.Fatal(err)
	}
	if err := p.client.Reconnect(); err != nil {
		t.Fatalf("reconnect after thaw: %v", err)
	}
	if id, err := p.client.Ping(); err != nil || id != 1 {
		t.Fatalf("ping after thaw = %v, %v; want site 1", id, err)
	}
}

// TestKillDoesNotWaitForCallInFlight pins kill()'s order: the SIGKILL
// goes out before the client is closed. Close waits for the call in
// flight, and a call to a frozen node (spawned here with no deadline,
// the worst case) returns only when the node dies — so closing first
// never reaches the signal, and -kill-mid-commit kills a coordinator
// only after its commit call has answered.
func TestKillDoesNotWaitForCallInFlight(t *testing.T) {
	bin := nodeBin(t)

	p, err := spawn(bin, 1, filepath.Join(t.TempDir(), "site1.wal"),
		"127.0.0.1:0", "127.0.0.1:0", 25*time.Millisecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.cmd.Process.Kill() //nolint:errcheck // in case kill() never got there
	if err := p.cmd.Process.Signal(syscall.SIGSTOP); err != nil {
		t.Fatal(err)
	}
	waitStopped(t, p.cmd.Process.Pid)

	pinged := make(chan error, 1)
	go func() {
		_, err := p.client.Ping()
		pinged <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the ping take the client and block

	killed := make(chan struct{})
	go func() { p.kill(); close(killed) }()
	select {
	case <-killed:
	case <-time.After(2 * time.Second):
		t.Fatal("kill() still waiting after 2s: it closed the client before sending the signal")
	}
	select {
	case err := <-pinged:
		if !errors.Is(err, ctl.ErrUnavailable) {
			t.Errorf("ping in flight across the kill = %v, want ErrUnavailable", err)
		}
	case <-time.After(2 * time.Second):
		t.Error("ping in flight never returned after the kill")
	}
}

// TestUnknownProtocolRefusedBeforeSpawn: what the command line gets
// wrong is refused before any node is spawned — the node binary named
// here does not exist, so reaching spawn would fail differently. A
// mistyped -protocol used to run the whole workload with every commit
// refused and exit 0; -kill-mid-commit under -netem used to be
// silently ignored.
func TestUnknownProtocolRefusedBeforeSpawn(t *testing.T) {
	noNode := filepath.Join(t.TempDir(), "no-such-node")
	_, badProtocol := wire.ParseProtocol("paxso")
	for name, tc := range map[string]struct {
		cfg  config
		want string
	}{
		"unknown protocol": {config{Nodes: 3, Txns: 6, Protocol: "paxso"}, badProtocol.Error()},
		"unknown protocol with a schedule": {config{Nodes: 3, Protocol: "paxso",
			Netem: "testdata/netem-ci.json"}, badProtocol.Error()},
		"mid-commit kill with a schedule": {config{Nodes: 3, KillMidCommit: true,
			Netem: "testdata/netem-smoke.json"}, "-kill-mid-commit belongs to the built-in fault plan"},
	} {
		tc.cfg.NodeBin = noNode
		if _, err := run(tc.cfg); err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%s: run = %v, want %q", name, err, tc.want)
		}
	}
}

// waitStopped polls /proc until pid's state is T (stopped) — the
// point after which the frozen node provably cannot answer.
func waitStopped(t *testing.T, pid int) {
	t.Helper()
	stat := fmt.Sprintf("/proc/%d/stat", pid)
	for i := 0; i < 200; i++ {
		b, err := os.ReadFile(stat)
		if err != nil {
			t.Fatalf("reading %s: %v", stat, err)
		}
		// State is the field after the parenthesized comm.
		if j := bytes.LastIndexByte(b, ')'); j >= 0 && j+2 < len(b) && b[j+2] == 'T' {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("process never reached the stopped state")
}
