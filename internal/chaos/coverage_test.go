package chaos

import (
	"slices"
	"strings"
	"testing"

	"camelot/internal/wire"
)

// pilotSeeds are the canonical fault-free pilots the coverage table's
// Pilots column is pinned against: four seeded workloads per
// protocol, enough that every phase of every protocol (including the
// delayed-ack flush) appears in at least one run. Deterministic
// replay makes the observed kind set a constant of the repository.
var pilotSeeds = []int64{1, 2, 3, 4}

// TestPilotKindCoverage is the dynamic counterpart of the kindsurface
// analyzer: where the analyzer proves every wire.Kind has a row in
// the coverage table, this test proves the Pilots column tells the
// truth. For each protocol it replays the canonical pilots and
// compares the kinds actually sent against the kinds the table claims
// that protocol's pilot sends — a mismatch in either direction fails
// (a missing claim means the sweep is blind to reachable traffic; a
// stale claim means the table promises coverage the pilot no longer
// delivers).
func TestPilotKindCoverage(t *testing.T) {
	for _, proto := range wire.Protocols() {
		observed := make(map[wire.Kind]bool)
		for _, seed := range pilotSeeds {
			res, err := Run(Schedule{Seed: seed, Sites: 3, Txns: 8, Protocol: proto})
			if err != nil {
				t.Fatalf("%s seed %d: %v", proto, seed, err)
			}
			if res.Failed() {
				t.Fatalf("%s seed %d: fault-free pilot failed: %v", proto, seed, res.Violations)
			}
			for _, pt := range res.Points {
				if pt.Class != ClassMsg {
					continue
				}
				// ClassMsg labels are "KIND from→to"; non-wire payloads
				// (commman RPCs) are labeled by their Go type instead
				// and resolve to no kind.
				if k, ok := kindByName(strings.Fields(pt.Label)[0]); ok {
					observed[k] = true
				}
			}
		}

		declared := make(map[wire.Kind]bool)
		for k, c := range kindCoverage {
			for _, p := range c.Pilots {
				if p == proto {
					declared[k] = true
				}
			}
		}

		for _, k := range wire.Kinds() {
			switch {
			case observed[k] && !declared[k]:
				t.Errorf("%s pilot sends %s but the coverage table does not list it under Pilots", proto, k)
			case !observed[k] && declared[k]:
				t.Errorf("coverage table claims the %s pilot sends %s but it does not", proto, k)
			}
		}
	}
}

// TestCoverageTableShape pins the table's structural invariants:
// every registered kind has exactly one form of coverage — a pilot
// list or a fault-only justification, never both and never neither.
// (The kindsurface analyzer enforces presence statically too; this
// keeps `go test` and `make lint` agreeing without running the
// other.)
func TestCoverageTableShape(t *testing.T) {
	for _, k := range wire.Kinds() {
		c, ok := Coverage(k)
		if !ok {
			t.Errorf("wire.Kind %s has no injection-coverage row", k)
			continue
		}
		if len(c.Pilots) > 0 && c.FaultOnly != "" {
			t.Errorf("%s: both Pilots and FaultOnly set; FaultOnly is only for kinds no pilot sends", k)
		}
		if len(c.Pilots) == 0 && c.FaultOnly == "" {
			t.Errorf("%s: empty coverage row — list its pilots or justify why only faults reach it", k)
		}
		for _, p := range c.Pilots {
			if p.Check() != nil {
				t.Errorf("%s: unknown protocol %v in Pilots", k, p)
			}
		}
		if !slices.IsSorted(c.Pilots) {
			t.Errorf("%s: Pilots %v not sorted", k, c.Pilots)
		}
	}
	if len(kindCoverage) != len(wire.Kinds()) {
		t.Errorf("coverage table has %d rows for %d registered kinds", len(kindCoverage), len(wire.Kinds()))
	}
}

// kindByName reverses Kind.String() over the registered kinds.
func kindByName(name string) (wire.Kind, bool) {
	for _, k := range wire.Kinds() {
		if k.String() == name {
			return k, true
		}
	}
	return 0, false
}
