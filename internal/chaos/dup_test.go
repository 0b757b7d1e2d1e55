package chaos

import (
	"testing"

	"camelot/internal/wire"
)

// Duplicate delivery and reordering at representative protocol
// datagrams must be harmless under every protocol: each step is
// either idempotent or guarded by phase/ballot state. The indexes
// span the workload — early (prepare traffic), middle (votes and
// outcomes), late (acks and inquiries) — and the full cross product
// over every send point is the sweep's job (make chaos).
func TestDupAndReorderSurviveOracleAllProtocols(t *testing.T) {
	indexes := []int{5, 25, 40, 60, 80}
	if testing.Short() {
		indexes = []int{25, 60}
	}
	for _, proto := range wire.Protocols() {
		for _, mode := range []string{ModeDup, ModeReorder} {
			for _, idx := range indexes {
				s := Schedule{Version: Version, Seed: 1, Sites: 3, Txns: 8,
					Protocol: proto,
					Faults:   []Fault{{Class: ClassMsg, Index: idx, Mode: mode}}}
				r, err := Run(s)
				if err != nil {
					t.Fatalf("%s msg[%d]:%s: %v", proto, idx, mode, err)
				}
				if r.Failed() {
					t.Errorf("%s msg[%d]:%s: violations %v deadlock %q",
						proto, idx, mode, r.Violations, r.Deadlock)
				}
			}
		}
	}
}

// A duplicated datagram replayed from a chaos/v1 schedule is still
// deterministic: two runs of the same dup schedule produce identical
// outcome lists.
func TestDupScheduleDeterministic(t *testing.T) {
	s := Schedule{Version: Version, Seed: 3, Sites: 3, Txns: 6,
		Faults: []Fault{{Class: ClassMsg, Index: 30, Mode: ModeDup}}}
	a, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Outcomes) != len(b.Outcomes) {
		t.Fatalf("outcome counts differ: %d vs %d", len(a.Outcomes), len(b.Outcomes))
	}
	for i := range a.Outcomes {
		if a.Outcomes[i] != b.Outcomes[i] {
			t.Fatalf("outcome %d differs: %s vs %s", i, a.Outcomes[i], b.Outcomes[i])
		}
	}
}
