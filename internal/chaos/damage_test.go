package chaos

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"camelot/internal/rt"
	"camelot/internal/tid"
	"camelot/internal/wal"
)

// survivors writes one three-record batch (UPDATE+UPDATE+COMMIT)
// through a wal.FaultStore armed, as the engine arms it, with mode's
// damage at that device write, and returns the record types recovery
// then reads back.
func survivors(t *testing.T, mode string) []string {
	t.Helper()
	tripped := false
	fs := wal.NewFaultStore(wal.NewMemStore(), func() { tripped = true })
	fs.ArmAppend(0, damages[mode])

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
	if err := log.Force(math.MaxUint64); !errors.Is(err, wal.ErrClosed) {
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

// Each force-fault mode a schedule can name leaves a different part of
// a multi-record batch behind; together they cover none, a proper
// prefix, all but the last, and all of it.
func TestFaultStorePartialBatchDamage(t *testing.T) {
	for mode, want := range map[string][]string{
		ModeTorn:     nil,
		ModeBitflip:  {"UPDATE"},
		ModeTornLast: {"UPDATE", "UPDATE"},
		ModeCrash:    {"UPDATE", "UPDATE", "COMMIT"},
	} {
		if _, ok := damages[mode]; !ok {
			t.Fatalf("%s: no damage mode for this force-fault mode", mode)
		}
		if got := survivors(t, mode); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %v survive, want %v", mode, got, want)
		}
	}
}
