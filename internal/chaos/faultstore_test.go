package chaos

import (
	"errors"
	"reflect"
	"testing"

	"camelot/internal/rt"
	"camelot/internal/tid"
	"camelot/internal/wal"
)

// survivors writes one three-record batch (UPDATE+UPDATE+COMMIT)
// through a FaultStore armed with mode at that device write, and
// returns the record types recovery then reads back.
func survivors(t *testing.T, mode string) []string {
	t.Helper()
	tripped := false
	fs := NewFaultStore(wal.NewMemStore(), func() { tripped = true })
	fs.Arm(&Fault{Class: ClassForce, Site: 1, Index: 0, Mode: mode})

	txn := tid.Top(tid.MakeFamily(1, 1))
	log := wal.Open(rt.Real(), fs, wal.Config{GroupCommit: true})
	for _, r := range []*wal.Record{
		{Type: wal.RecUpdate, TID: txn, Server: "srv", Key: "a", New: []byte("1")},
		{Type: wal.RecUpdate, TID: txn, Server: "srv", Key: "b", New: []byte("2")},
		{Type: wal.RecCommit, TID: txn},
	} {
		if _, err := log.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.ForceAll(); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("%s: force = %v, want the log fail-stopped: a faulted write is never acknowledged", mode, err)
	}
	if !tripped || !fs.Tripped() {
		t.Fatalf("%s: fault did not trip", mode)
	}
	if got := fs.Labels(); !reflect.DeepEqual(got, []string{"UPDATE+UPDATE+COMMIT"}) {
		t.Fatalf("%s: labels %v, want the one block's three record types", mode, got)
	}

	// Recovery: a fresh log over the same store.
	relog := wal.Open(rt.Real(), fs, wal.Config{})
	defer relog.Close()
	recs, err := relog.Records()
	if err != nil {
		t.Fatalf("%s: Records: %v", mode, err)
	}
	var types []string
	for _, r := range recs {
		types = append(types, r.Type.String())
	}
	return types
}

// Each force-fault mode leaves a different part of a multi-record
// batch behind; together they cover none, a proper prefix, all but the
// last, and all of it.
func TestFaultStorePartialBatchDamage(t *testing.T) {
	for mode, want := range map[string][]string{
		ModeTorn:     nil,
		ModeBitflip:  {"UPDATE"},
		ModeTornLast: {"UPDATE", "UPDATE"},
		ModeCrash:    {"UPDATE", "UPDATE", "COMMIT"},
	} {
		if got := survivors(t, mode); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %v survive, want %v", mode, got, want)
		}
	}
}

func TestTornLastEnumeratedOnlyForMultiRecordBlocks(t *testing.T) {
	has := func(p Point) bool {
		for _, m := range p.Modes() {
			if m == ModeTornLast {
				return true
			}
		}
		return false
	}
	if has(Point{Class: ClassForce, Label: "COMMIT"}) {
		t.Error("torn-last enumerated for a single-record block, where it repeats torn")
	}
	if !has(Point{Class: ClassForce, Label: "UPDATE+COMMIT"}) {
		t.Error("torn-last not enumerated for a multi-record block")
	}
	if err := validFault(Fault{Class: ClassMsg, Index: 0, Mode: ModeTornLast}); err == nil {
		t.Error("torn-last accepted for a datagram fault")
	}
}
