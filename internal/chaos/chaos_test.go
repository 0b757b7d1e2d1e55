package chaos

import (
	"bytes"
	"strings"
	"testing"

	"camelot/internal/wire"
)

// pilot runs the fault-free schedule once and sanity-checks it.
func pilot(t *testing.T) *Result {
	t.Helper()
	r, err := Run(Schedule{Version: Version, Seed: 1, Sites: 3, Txns: 8})
	if err != nil {
		t.Fatalf("pilot: %v", err)
	}
	if r.Failed() {
		t.Fatalf("fault-free pilot failed: %v %v", r.Violations, r.Deadlock)
	}
	return r
}

func TestPilotEnumeratesAllPointClasses(t *testing.T) {
	r := pilot(t)
	byClass := map[string]int{}
	for _, p := range r.Points {
		byClass[p.Class]++
	}
	for _, class := range []string{ClassForce, ClassMsg, ClassCkpt} {
		if byClass[class] == 0 {
			t.Errorf("pilot enumerated no %q points", class)
		}
	}
	// Every committed transaction forces a commit record somewhere,
	// in the same device write as the updates it commits; the labels
	// must say so, record by record.
	sawCommit := false
	for _, p := range r.Points {
		if p.Class == ClassForce && strings.HasSuffix(p.Label, "UPDATE+COMMIT") {
			sawCommit = true
			break
		}
	}
	if !sawCommit {
		t.Error("no force point labeled with an update and its COMMIT in one block")
	}
	for _, o := range r.Outcomes {
		if o != "committed" {
			t.Errorf("fault-free outcome %q, want committed", o)
		}
	}
}

func TestPilotDeterministic(t *testing.T) {
	a, b := pilot(t), pilot(t)
	if len(a.Points) != len(b.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(a.Points), len(b.Points))
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatalf("point %d differs: %+v vs %+v", i, a.Points[i], b.Points[i])
		}
	}
}

func TestSingleFaultRunsSurviveOracle(t *testing.T) {
	// One representative fault of each class/mode family; the full
	// cross product is the sweep's job (make chaos).
	base := Schedule{Version: Version, Seed: 1, Sites: 3, Txns: 8}
	faults := []Fault{
		{Class: ClassMsg, Index: 40, Mode: ModeDrop},
		{Class: ClassMsg, Index: 60, Mode: ModeCrash},
		{Class: ClassMsg, Index: 25, Mode: ModePartition, WindowMs: 200},
		{Class: ClassForce, Site: 1, Index: 3, Mode: ModeCrash},
		{Class: ClassForce, Site: 2, Index: 2, Mode: ModeTorn},
		{Class: ClassForce, Site: 1, Index: 2, Mode: ModeTornLast}, // END+UPDATE survive, COMMIT does not
		{Class: ClassForce, Site: 3, Index: 2, Mode: ModeBitflip},
		{Class: ClassCkpt, Site: 1, Index: 0, Mode: ModeCrash},
	}
	for _, f := range faults {
		s := base
		s.Faults = []Fault{f}
		r, err := Run(s)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if r.Failed() {
			t.Errorf("%s: violations %v deadlock %q", f, r.Violations, r.Deadlock)
		}
	}
}

func TestSweepBoundedZeroViolations(t *testing.T) {
	maxPoints := 12
	if testing.Short() {
		maxPoints = 4
	}
	for _, proto := range wire.Protocols() {
		rep, err := Sweep(Options{Sites: 3, Protocol: proto, Seed: 1, Txns: 6, MaxPoints: maxPoints}, nil)
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if len(rep.Failures) != 0 {
			enc, _ := EncodeReport(rep)
			t.Errorf("%v: %d failing schedule(s):\n%s", proto, len(rep.Failures), enc)
		}
		if rep.PointsTotal == 0 || rep.PointsRun == 0 {
			t.Errorf("%v: no points enumerated (%d) or run (%d)",
				proto, rep.PointsTotal, rep.PointsRun)
		}
	}
}

func TestSweepReportByteIdentical(t *testing.T) {
	opts := Options{Sites: 3, Seed: 7, Txns: 5, MaxPoints: 3}
	a, err := Sweep(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sweep(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	ea, err := EncodeReport(a)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := EncodeReport(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ea, eb) {
		t.Error("same options, different report bytes — sweep is nondeterministic")
	}
}
