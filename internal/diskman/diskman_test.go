package diskman

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"camelot/internal/recman"
	"camelot/internal/sim"
	"camelot/internal/tid"
	"camelot/internal/wal"
	"camelot/internal/wire"
)

func top(n uint32) tid.TID { return tid.Top(tid.MakeFamily(1, n)) }

// buildLog writes records into a fresh log over a MemStore, forcing
// at every protocol record the way a transaction manager does: each
// transaction's updates ride in the block of the record that follows
// them.
func buildLog(t *testing.T, recs []*wal.Record) *wal.Log {
	t.Helper()
	var blocks [][]*wal.Record
	start := 0
	for i, r := range recs {
		if r.Type != wal.RecUpdate {
			blocks = append(blocks, recs[start:i+1])
			start = i + 1
		}
	}
	if start < len(recs) {
		blocks = append(blocks, recs[start:])
	}
	log, _ := buildBlocks(t, blocks...)
	return log
}

// buildBlocks writes each group of records as one device write (one
// block) of a fresh log, and returns the log with its store.
func buildBlocks(t *testing.T, blocks ...[]*wal.Record) (*wal.Log, *wal.MemStore) {
	t.Helper()
	k := sim.New(1)
	store := wal.NewMemStore()
	var log *wal.Log
	k.Go("w", func() {
		log = wal.Open(k, store, wal.Config{})
		for _, recs := range blocks {
			for _, r := range recs {
				if _, err := log.Append(r); err != nil {
					t.Errorf("append: %v", err)
				}
			}
			if err := log.Force(math.MaxUint64); err != nil {
				t.Errorf("force: %v", err)
			}
		}
	})
	k.Run()
	if store.Len() != len(blocks) {
		t.Fatalf("store holds %d blocks, want one per force (%d)", store.Len(), len(blocks))
	}
	return log, store
}

func upd(txn tid.TID, key, val string) *wal.Record {
	r := &wal.Record{Type: wal.RecUpdate, TID: txn, Server: "srv", Key: key}
	if val != "" {
		r.New = []byte(val)
	}
	return r
}

func TestCheckpointAbsorbsResolvedAndTruncates(t *testing.T) {
	log := buildLog(t, []*wal.Record{
		upd(top(1), "a", "1"),
		{Type: wal.RecCommit, TID: top(1)},
		upd(top(2), "b", "2"),
		{Type: wal.RecAbort, TID: top(2)},
	})
	ps := NewPageStore()
	cut, err := Checkpoint(1, log, ps)
	if err != nil {
		t.Fatal(err)
	}
	if cut != 4 {
		t.Errorf("truncated %d records, want all 4", cut)
	}
	recs, _ := log.Records()
	if len(recs) != 0 {
		t.Errorf("%d records left after full checkpoint", len(recs))
	}
	snap := ps.Read()
	if string(snap.Data["srv"]["a"]) != "1" {
		t.Errorf("image a = %q", snap.Data["srv"]["a"])
	}
	if _, ok := snap.Data["srv"]["b"]; ok {
		t.Error("aborted update in image")
	}
	want := map[tid.FamilyID]wire.Outcome{top(1).Family: wire.OutcomeCommit, top(2).Family: wire.OutcomeAbort}
	if got := outcomesOf(&snap.Outcomes); !reflect.DeepEqual(got, want) {
		t.Errorf("outcomes = %v, want %v", got, want)
	}
}

func TestInDoubtTransactionPinsTruncation(t *testing.T) {
	log := buildLog(t, []*wal.Record{
		upd(top(1), "a", "1"),
		{Type: wal.RecCommit, TID: top(1)},
		// In-doubt: prepared, never resolved. Coordinated remotely.
		{Type: wal.RecUpdate, TID: tid.Top(tid.MakeFamily(9, 5)), Server: "srv", Key: "x", New: []byte("v")},
		{Type: wal.RecPrepare, TID: tid.Top(tid.MakeFamily(9, 5)), Coordinator: 9},
		upd(top(2), "b", "2"),
		{Type: wal.RecCommit, TID: top(2)},
	})
	ps := NewPageStore()
	cut, err := Checkpoint(1, log, ps)
	if err != nil {
		t.Fatal(err)
	}
	// Only the prefix before the in-doubt transaction's first record
	// may go.
	if cut != 2 {
		t.Fatalf("truncated %d records, want 2 (pinned by in-doubt txn)", cut)
	}
	recs, _ := log.Records()
	if len(recs) != 4 {
		t.Fatalf("%d records retained, want 4", len(recs))
	}
	// Recovery must surface the in-doubt transaction and still see
	// both committed updates.
	a, err := Recover(1, log, ps)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.InDoubt) != 1 {
		t.Fatalf("InDoubt = %v", a.InDoubt)
	}
	data := a.Data
	if string(data["srv"]["a"]) != "1" || string(data["srv"]["b"]) != "2" {
		t.Fatalf("recovered data = %v", data["srv"])
	}
	if _, ok := data["srv"]["x"]; ok {
		t.Error("in-doubt update leaked into recovered image")
	}
}

// A cut that lands inside a block is rounded down to the block's
// start: the image absorbs the whole resolved prefix, the log keeps
// the block the cut fell in, and recovery — here after a crash, over a
// freshly opened log — replays the overlap on top of the image without
// changing it.
func TestCheckpointCutInsideBlockRoundsDown(t *testing.T) {
	inDoubt := tid.Top(tid.MakeFamily(9, 5))
	history := [][]*wal.Record{
		{upd(top(1), "a", "1"), {Type: wal.RecCommit, TID: top(1)}},
		{upd(top(2), "a", "2"), {Type: wal.RecCommit, TID: top(2)},
			{Type: wal.RecUpdate, TID: inDoubt, Server: "srv", Key: "x", New: []byte("v")}},
		{{Type: wal.RecPrepare, TID: inDoubt, Coordinator: 9}},
	}
	log, store := buildBlocks(t, history...)
	ps := NewPageStore()
	// The in-doubt family pins the cut at record 4 — the third record
	// of the second block — so only the first block (2 records) goes.
	cut, err := Checkpoint(1, log, ps)
	if err != nil {
		t.Fatal(err)
	}
	if cut != 2 {
		t.Fatalf("truncated %d records, want 2 (the whole blocks below the cut at 4)", cut)
	}
	if store.Len() != 2 {
		t.Fatalf("store holds %d blocks after the checkpoint, want 2", store.Len())
	}

	// Crash: a new log over the same store and image.
	var a *recman.Analysis
	k := sim.New(2)
	k.Go("recover", func() {
		relog := wal.Open(k, store, wal.Config{})
		defer relog.Close()
		a, err = Recover(1, relog, ps)
	})
	k.Run()
	if err != nil {
		t.Fatal(err)
	}
	data := a.Data
	if got := string(data["srv"]["a"]); got != "2" {
		t.Errorf("a = %q after replaying the overlap, want the later committed value 2", got)
	}
	if _, ok := data["srv"]["x"]; ok {
		t.Error("in-doubt update leaked into the recovered image")
	}
	if len(a.InDoubt) != 1 {
		t.Errorf("InDoubt = %v, want the prepared family", a.InDoubt)
	}
}

func TestUnresolvedCoordinatorPinsTruncation(t *testing.T) {
	log := buildLog(t, []*wal.Record{
		upd(top(1), "a", "1"),
		{Type: wal.RecCommit, TID: top(1), Sites: []tid.SiteID{2}}, // no END yet
	})
	ps := NewPageStore()
	cut, err := Checkpoint(1, log, ps)
	if err != nil {
		t.Fatal(err)
	}
	if cut != 0 {
		t.Fatalf("truncated %d records of an unresolved coordinator decision", cut)
	}
}

func TestDeleteAcrossCheckpoint(t *testing.T) {
	k := sim.New(2)
	ps := NewPageStore()
	var log *wal.Log
	k.Go("w", func() {
		log = wal.Open(k, wal.NewMemStore(), wal.Config{})
		log.Append(upd(top(1), "a", "1"))                         //nolint:errcheck
		log.Append(&wal.Record{Type: wal.RecCommit, TID: top(1)}) //nolint:errcheck
		log.Force(math.MaxUint64)                                 //nolint:errcheck
		if _, err := Checkpoint(1, log, ps); err != nil {
			t.Errorf("checkpoint: %v", err)
		}
		// Now a committed deletion in the tail.
		log.Append(upd(top(2), "a", ""))                          //nolint:errcheck // nil New = delete
		log.Append(&wal.Record{Type: wal.RecCommit, TID: top(2)}) //nolint:errcheck
		log.Force(math.MaxUint64)                                 //nolint:errcheck
	})
	k.Run()
	a, err := Recover(1, log, ps)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := a.Data["srv"]["a"]; ok {
		t.Fatal("key deleted after checkpoint still present in recovered image")
	}
}

func TestSuccessiveCheckpointsAccumulate(t *testing.T) {
	k := sim.New(3)
	store := wal.NewMemStore()
	ps := NewPageStore()
	var log *wal.Log
	truncated := 0
	k.Go("w", func() {
		log = wal.Open(k, store, wal.Config{})
		for round := uint32(1); round <= 3; round++ {
			log.Append(upd(top(round), fmt.Sprintf("k%d", round), "v"))   //nolint:errcheck
			log.Append(&wal.Record{Type: wal.RecCommit, TID: top(round)}) //nolint:errcheck
			log.Force(math.MaxUint64)                                     //nolint:errcheck
			cut, err := Checkpoint(1, log, ps)
			if err != nil {
				t.Errorf("checkpoint %d: %v", round, err)
			}
			truncated += cut
		}
	})
	k.Run()
	snap := ps.Read()
	if truncated != 6 {
		t.Errorf("cumulative truncated records = %d, want 6", truncated)
	}
	for round := 1; round <= 3; round++ {
		if _, ok := snap.Data["srv"][fmt.Sprintf("k%d", round)]; !ok {
			t.Errorf("k%d missing from image", round)
		}
	}
	if got := snap.Outcomes.Len(); got != 3 {
		t.Errorf("absorbed outcomes = %d, want 3", got)
	}
}

// Checkpoints taken behind an in-doubt pin re-analyze the retained
// tail each time; the image still holds one outcome per resolved
// family, however often it is folded in.
func TestCheckpointsBehindPinKeepOneOutcomePerFamily(t *testing.T) {
	inDoubt := tid.Top(tid.MakeFamily(9, 5))
	log := buildLog(t, []*wal.Record{
		{Type: wal.RecUpdate, TID: inDoubt, Server: "srv", Key: "x", New: []byte("v")},
		{Type: wal.RecPrepare, TID: inDoubt, Coordinator: 9},
		upd(top(1), "a", "1"),
		{Type: wal.RecCommit, TID: top(1)},
	})
	ps := NewPageStore()
	for i := 0; i < 3; i++ {
		if cut, err := Checkpoint(1, log, ps); err != nil || cut != 0 {
			t.Fatalf("checkpoint %d: truncated %d, err %v; want nothing past the pin", i, cut, err)
		}
	}
	want := map[tid.FamilyID]wire.Outcome{top(1).Family: wire.OutcomeCommit}
	if got := outcomesOf(&ps.Read().Outcomes); !reflect.DeepEqual(got, want) {
		t.Errorf("image outcomes = %v, want %v", got, want)
	}
	absorbed := ps.Absorbed()
	if got := outcomesOf(&absorbed); !reflect.DeepEqual(got, want) {
		t.Errorf("Absorbed = %v, want %v", got, want)
	}
}

// TestCheckpointEquivalenceProperty: for random histories and random
// checkpoint placement, recovery through the page image must yield
// exactly the same data as a full-log replay.
func TestCheckpointEquivalenceProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var history []*wal.Record
		nTxn := 3 + rng.Intn(8)
		for i := 0; i < nTxn; i++ {
			txn := top(uint32(i + 1))
			for j := 0; j <= rng.Intn(3); j++ {
				key := fmt.Sprintf("k%d", rng.Intn(5))
				val := fmt.Sprintf("v%d.%d", i, j)
				if rng.Intn(6) == 0 {
					val = "" // delete
				}
				history = append(history, upd(txn, key, val))
			}
			if rng.Intn(4) == 0 {
				history = append(history, &wal.Record{Type: wal.RecAbort, TID: txn})
			} else {
				history = append(history, &wal.Record{Type: wal.RecCommit, TID: txn})
			}
		}

		// Reference: full replay.
		want := recman.Analyze(1, nil, history).Data

		// Checkpointed path: split the history at random points, with
		// a checkpoint between segments.
		k := sim.New(seed)
		store := wal.NewMemStore()
		ps := NewPageStore()
		ok := true
		k.Go("w", func() {
			log := wal.Open(k, store, wal.Config{})
			i := 0
			for i < len(history) {
				n := 1 + rng.Intn(4)
				for j := 0; j < n && i < len(history); j++ {
					log.Append(history[i]) //nolint:errcheck
					i++
				}
				log.Force(math.MaxUint64) //nolint:errcheck
				if rng.Intn(2) == 0 {
					if _, err := Checkpoint(1, log, ps); err != nil {
						ok = false
						return
					}
				}
			}
			a, err := Recover(1, log, ps)
			if err != nil {
				ok = false
				return
			}
			got := a.Data
			// Normalize: empty maps vs missing maps.
			norm := func(m map[string]map[string][]byte) map[string]string {
				out := make(map[string]string)
				for srv, kv := range m {
					for key, v := range kv {
						out[srv+"/"+key] = string(v)
					}
				}
				return out
			}
			ok = reflect.DeepEqual(norm(want), norm(got))
		})
		k.RunUntil(time.Minute)
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// outcomesOf lists a table's outcomes as a map, for comparison.
func outcomesOf(t *recman.OutcomeTable) map[tid.FamilyID]wire.Outcome {
	m := make(map[tid.FamilyID]wire.Outcome)
	t.Range(func(f tid.FamilyID, o wire.Outcome) { m[f] = o })
	return m
}
