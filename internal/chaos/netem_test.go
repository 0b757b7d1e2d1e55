package chaos

import (
	"encoding/json"
	"strings"
	"testing"

	"camelot/internal/netem"
	"camelot/internal/wire"
)

func netemLossy() netem.Schedule {
	return netem.Schedule{
		Version: netem.Version,
		Seed:    11,
		Links: []netem.Rule{{
			Drop: 0.05, Dup: 0.05, DelayMs: 1, JitterMs: 4,
			Reorder: 0.1, ReorderMs: 25,
		}},
		Partitions: []netem.Partition{{A: 1, B: 2, StartMs: 400, EndMs: 900, OneWay: true}},
		Procs: []netem.ProcFault{
			{Site: 3, AtMs: 600, Op: netem.OpKill},
			{Site: 3, AtMs: 1100, Op: netem.OpRestart},
		},
	}
}

// A netem/v1 schedule replayed under the simulation is byte-for-byte
// deterministic: same (netem, workload) pair, same serialized result
// — outcomes, emulator decision counts, everything.
func TestNetemReplayByteIdentical(t *testing.T) {
	ns := netemLossy()
	w := Schedule{Version: Version, Seed: 5, Sites: 3, Txns: 8, Protocol: wire.TwoPhase}
	a, err := RunNetem(ns, w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunNetem(ns, w)
	if err != nil {
		t.Fatal(err)
	}
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Fatalf("replays differ:\n%s\nvs\n%s", ja, jb)
	}
	if a.Counts.Seen == 0 || a.Counts.Dropped == 0 {
		t.Fatalf("lossy schedule shaped nothing: %+v", a.Counts)
	}
	if a.Failed() {
		t.Fatalf("violations %v deadlock %q", a.Violations, a.Deadlock)
	}
}

// The full storm — loss, duplication, reorder, jitter, a one-way
// partition, and a mid-run kill+restart — must leave every protocol's
// invariants intact once the network heals.
func TestNetemStormSurvivesOracleAllProtocols(t *testing.T) {
	protos := wire.Protocols()
	if testing.Short() {
		protos = protos[:1]
	}
	for _, proto := range protos {
		ns := netemLossy()
		w := Schedule{Version: Version, Seed: 9, Sites: 3, Txns: 8, Protocol: proto}
		r, err := RunNetem(ns, w)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if r.Failed() {
			t.Errorf("%s: violations %v deadlock %q", proto, r.Violations, r.Deadlock)
		}
	}
}

// A WAL fault (dying disk at a targeted device write) maps to a crash
// at that block write; the cluster must recover and stay consistent.
// Site 2 issues one device write per transaction — its update and the
// previous transaction's lazy COMMIT ride the forced PREPARE — so write
// 3, counted from zero, is the fourth of six transactions' prepare
// force. A fault beyond the run's writes is itself a violation.
func TestNetemWALFaultSurvives(t *testing.T) {
	ns := netem.Schedule{
		Version: netem.Version,
		Seed:    3,
		WAL:     []netem.WALFault{{Site: 2, FailAppend: 3}},
	}
	w := Schedule{Version: Version, Seed: 2, Sites: 3, Txns: 6}
	r, err := RunNetem(ns, w)
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed() {
		t.Fatalf("violations %v deadlock %q", r.Violations, r.Deadlock)
	}
}

func TestNetemWALFaultMustFire(t *testing.T) {
	ns := netem.Schedule{
		Version: netem.Version,
		Seed:    3,
		WAL:     []netem.WALFault{{Site: 2, FailAppend: 1000}},
	}
	r, err := RunNetem(ns, Schedule{Version: Version, Seed: 2, Sites: 3, Txns: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Violations) != 1 || !strings.Contains(r.Violations[0], "never reached device write 1000") {
		t.Fatalf("violations %v, want the unreached WAL fault reported", r.Violations)
	}
}
