package chaos

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The regression corpus: each testdata/*.json schedule pins a fault
// pattern that once exposed a real protocol bug (DESIGN.md §7). The
// bugs are fixed, so every replay must now survive the oracle — a
// regression would turn one of these green files red with an exact,
// replayable repro attached.
//
// A fault is addressed by counting ("the k-th device write at site 1"),
// so a change to how the log groups records into blocks moves what an
// index hits. corpusTargets names, per file, the record or datagram
// the schedule's note says the fault lands on; the test replays the
// fault-free pilot and checks the addressed point still carries it.
var corpusTargets = map[string]string{
	"family-id-reuse.json":   "COMMIT",
	"nb-status-amnesia.json": "NB-REPLICATE",
	"orphaned-join.json":     "*commman.Response 3→1",
}

func TestCorpusReplaysClean(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 3 {
		t.Fatalf("corpus has %d schedules, want at least the three §7 repros", len(files))
	}
	sort.Strings(files)
	for _, path := range files {
		name := filepath.Base(path)
		t.Run(name, func(t *testing.T) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			s, err := DecodeSchedule(b)
			if err != nil {
				t.Fatalf("corpus file does not decode: %v", err)
			}
			if len(s.Faults) == 0 || s.Note == "" {
				t.Fatal("corpus schedules must carry faults and a provenance note")
			}
			checkFaultTarget(t, s, corpusTargets[name])
			r, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			if r.Failed() {
				t.Errorf("regression: violations %v deadlock %q", r.Violations, r.Deadlock)
			}
			// Golden replay: the same schedule must produce the same
			// result, byte for byte, or the repro files stop being
			// replayable evidence.
			again, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			ra, _ := json.Marshal(r)
			rb, _ := json.Marshal(again)
			if !bytes.Equal(ra, rb) {
				t.Errorf("replay nondeterministic:\n%s\nvs\n%s", ra, rb)
			}
		})
	}
}

// checkFaultTarget runs s fault-free and checks that the point its
// single fault addresses is labeled with want — for a log write, that
// want is one of the records the block carries.
func checkFaultTarget(t *testing.T, s Schedule, want string) {
	t.Helper()
	if want == "" {
		t.Fatal("corpus file has no entry in corpusTargets")
	}
	if len(s.Faults) != 1 {
		t.Fatalf("corpus schedule carries %d faults, want 1", len(s.Faults))
	}
	f := s.Faults[0]
	pilot := s
	pilot.Faults = nil
	r, err := Run(pilot)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range r.Points {
		if p.Class != f.Class || p.Site != f.Site || p.Index != f.Index {
			continue
		}
		for _, part := range strings.Split(p.Label, "+") {
			if part == want {
				return
			}
		}
		t.Fatalf("fault %s lands on %q, which does not carry %s", f, p.Label, want)
	}
	t.Fatalf("fault %s addresses no point of the pilot run", f)
}
