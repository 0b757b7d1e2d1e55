package wal

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"camelot/internal/rt"
)

// recordTypes reads back what recovery finds on store.
func recordTypes(t *testing.T, store Store) []string {
	t.Helper()
	l := Open(rt.Real(), store, Config{})
	defer l.Close()
	recs, err := l.Records()
	if err != nil {
		t.Fatalf("Records: %v", err)
	}
	var types []string
	for _, r := range recs {
		types = append(types, r.Type.String())
	}
	return types
}

// One table for the one fault-injecting store: a clean block (a lone
// COMMIT), then the faulted operation — the second device write, a
// three-record batch (UPDATE+UPDATE+COMMIT), or the first truncation.
// Each append mode leaves a different part of the batch behind:
// together they cover none, a proper prefix, all but the last, all of
// it, and (lost) nothing reaching the device at all. A refused
// truncation has no damage mode: it never reaches the device. Either
// way the trip fires exactly once, and a log over the store fail-stops
// on the first injected append error — Err reports it and every later
// Append fails — so no later call reaches the store.
func TestFaultStore(t *testing.T) {
	for _, tc := range []struct {
		name     string
		truncate bool
		damage   Damage
		want     []string // record types recovery reads back
	}{
		{name: "append/crash", damage: DamageCrash, want: []string{"COMMIT", "UPDATE", "UPDATE", "COMMIT"}},
		{name: "append/torn", damage: DamageTorn, want: []string{"COMMIT"}},
		{name: "append/torn-last", damage: DamageTornLast, want: []string{"COMMIT", "UPDATE", "UPDATE"}},
		{name: "append/bitflip", damage: DamageBitflip, want: []string{"COMMIT", "UPDATE"}},
		{name: "append/lost", damage: DamageLost, want: []string{"COMMIT"}},
		{name: "truncate", truncate: true, want: []string{"COMMIT", "UPDATE", "UPDATE", "COMMIT"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			trips := 0
			fs := NewFaultStore(NewMemStore(), func() { trips++ })
			if tc.truncate {
				fs.ArmTruncate(0)
			} else {
				fs.ArmAppend(1, tc.damage)
			}
			l := Open(rt.Real(), fs, Config{GroupCommit: true})
			defer l.Close()
			forceBatches(t, l, []*Record{{Type: RecCommit, TID: testTID(1)}})
			before, _ := fs.Blocks()
			for _, r := range batch(0) {
				if _, err := l.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			err := l.Force(math.MaxUint64)

			if tc.truncate {
				if err != nil {
					t.Fatalf("force: %v", err)
				}
				if _, err := l.Truncate(1); !errors.Is(err, ErrInjected) {
					t.Fatalf("truncate = %v, want ErrInjected", err)
				}
			} else {
				if !errors.Is(err, ErrClosed) {
					t.Fatalf("force = %v, want the log fail-stopped: a faulted write is never acknowledged", err)
				}
				if !errors.Is(l.Err(), ErrInjected) {
					t.Fatalf("Err = %v, want ErrInjected", l.Err())
				}
				if _, err := l.Append(&Record{Type: RecCommit, TID: testTID(2)}); !errors.Is(err, ErrClosed) {
					t.Fatalf("append after the fault = %v, want ErrClosed", err)
				}
				if got := fs.Labels(); !reflect.DeepEqual(got, []string{"COMMIT", "UPDATE+UPDATE+COMMIT"}) {
					t.Fatalf("labels %v, want one per block", got)
				}
				if after, _ := fs.Blocks(); tc.damage == DamageLost && !reflect.DeepEqual(after, before) {
					t.Fatalf("lost write changed the device: %d blocks, had %d", len(after), len(before))
				}
			}
			if trips != 1 || !fs.Tripped() {
				t.Fatalf("trip fired %d times (Tripped %v), want exactly once", trips, fs.Tripped())
			}
			if appends, _ := fs.Counts(); appends != 2 {
				t.Fatalf("%d appends counted, want 2", appends)
			}
			if got := recordTypes(t, fs); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("%v survive, want %v", got, tc.want)
			}
		})
	}
}

// A store armed to lose the k-th append (camelot-node -wal-fail-append)
// refuses exactly that write; the log over it fail-stops there, so the
// failure is sticky for every later mutation, and the blocks written
// before it still read back.
func TestFailStoreFailsAtProgrammedAppend(t *testing.T) {
	fs := NewFaultStore(NewMemStore(), nil)
	fs.ArmAppend(2, DamageLost)
	l := Open(rt.Real(), fs, Config{})
	defer l.Close()
	forceBatches(t, l,
		[]*Record{{Type: RecCommit, TID: testTID(1)}},
		[]*Record{{Type: RecCommit, TID: testTID(2)}})
	if _, err := l.Append(&Record{Type: RecCommit, TID: testTID(3)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Force(math.MaxUint64); !errors.Is(err, ErrClosed) {
		t.Fatalf("force of append 2 = %v, want the log fail-stopped", err)
	}
	if !fs.Tripped() || !errors.Is(l.Err(), ErrInjected) {
		t.Fatalf("Tripped %v, Err %v: want the store tripped and ErrInjected", fs.Tripped(), l.Err())
	}
	// Dead is sticky for mutations…
	if _, err := l.Append(&Record{Type: RecCommit, TID: testTID(4)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after death = %v, want ErrClosed", err)
	}
	if appends, _ := fs.Counts(); appends != 3 {
		t.Fatalf("%d appends reached the store, want 3", appends)
	}
	// …but the written blocks still read back.
	if got := recordTypes(t, fs); !reflect.DeepEqual(got, []string{"COMMIT", "COMMIT"}) {
		t.Fatalf("%v survive, want the two forced commits", got)
	}
}

// Once one armed fault has fired, the other never does, and a disarmed
// store is a transparent wrapper.
func TestFaultStoreTripsOnce(t *testing.T) {
	trips := 0
	fs := NewFaultStore(NewMemStore(), func() { trips++ })
	fs.ArmAppend(0, DamageLost)
	fs.ArmTruncate(0)
	if err := fs.Append([]byte("a")); !errors.Is(err, ErrInjected) {
		t.Fatalf("append 0 = %v, want ErrInjected", err)
	}
	if err := fs.Truncate(0); err != nil {
		t.Fatalf("truncate after the trip = %v, want it passed through", err)
	}
	fs.Disarm()
	for i := 0; i < 10; i++ {
		if err := fs.Append([]byte("x")); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if trips != 1 {
		t.Fatalf("trip fired %d times, want once", trips)
	}
	if blocks, _ := fs.Blocks(); len(blocks) != 10 {
		t.Fatalf("%d blocks, want the 10 written after the lost one", len(blocks))
	}
}
