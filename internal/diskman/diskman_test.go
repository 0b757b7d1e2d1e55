package diskman

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"camelot/internal/det"
	"camelot/internal/recman"
	"camelot/internal/segment"
	"camelot/internal/server"
	"camelot/internal/sim"
	"camelot/internal/tid"
	"camelot/internal/wal"
	"camelot/internal/wire"
)

func top(n uint32) tid.TID { return tid.Top(tid.MakeFamily(1, n)) }

// value returns key's value in server srv's segment of data; a server
// without a segment holds no key.
func value(data map[string]*segment.Segment, srv, key string) (string, bool) {
	if data[srv] == nil {
		return "", false
	}
	v, ok := data[srv].Get(key)
	return string(v), ok
}

// wantData fails t unless each of want's keys has its value in server
// srv's segment of data, and each of absent's keys is absent.
func wantData(t *testing.T, data map[string]*segment.Segment, want map[string]string, absent ...string) {
	t.Helper()
	for _, k := range det.SortedKeys(want) {
		if got, ok := value(data, "srv", k); !ok || got != want[k] {
			t.Errorf("%.12s = %.12q, %v; want %.12q", k, got, ok, want[k])
		}
	}
	for _, k := range absent {
		if got, ok := value(data, "srv", k); ok {
			t.Errorf("%.12s = %.12q, want absent", k, got)
		}
	}
}

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
	// The aborted update is not in the image.
	wantData(t, snap.Data, map[string]string{"a": "1"}, "b")
	want := map[tid.FamilyID]wire.Outcome{top(1).Family: wire.OutcomeCommit, top(2).Family: wire.OutcomeAbort}
	if got := outcomesOf(&snap.Outcomes); !reflect.DeepEqual(got, want) {
		t.Errorf("outcomes = %v, want %v", got, want)
	}
}

// TestAnalyzeOverReadLeavesImage pins that PageStore.Read hands out
// segments of its own: recovery redoes the log onto the image it read
// (recman.Analyze takes ownership of it), and the stored image, which
// shares the chunks, must not see those writes and deletes.
func TestAnalyzeOverReadLeavesImage(t *testing.T) {
	log := buildLog(t, []*wal.Record{
		upd(top(1), "a", "1"),
		{Type: wal.RecCommit, TID: top(1)},
	})
	ps := NewPageStore()
	if _, err := Checkpoint(1, log, ps); err != nil {
		t.Fatal(err)
	}
	recman.Analyze(1, ps.Read().Data, []*wal.Record{
		upd(top(2), "a", ""), // a delete
		upd(top(2), "b", "2"),
		{Type: wal.RecCommit, TID: top(2)},
	})
	got := ps.Read().Data
	if len(got) != 1 {
		t.Fatalf("stored image holds %d servers after Analyze over a read copy, want srv alone", len(got))
	}
	wantData(t, got, map[string]string{"a": "1"}, "b")
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
	// The in-doubt update is not in the recovered image.
	wantData(t, a.Data, map[string]string{"a": "1", "b": "2"}, "x")
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
	// a holds the later committed value after the overlap's replay, and
	// the in-doubt update is not in the recovered image.
	wantData(t, a.Data, map[string]string{"a": "2"}, "x")
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
	wantData(t, a.Data, nil, "a")
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
	wantData(t, snap.Data, map[string]string{"k1": "v", "k2": "v", "k3": "v"})
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
			// Every key the history names has one value, or none, on
			// both paths; a server without a segment holds no key.
			norm := func(data map[string]*segment.Segment) map[string]string {
				out := make(map[string]string)
				for _, r := range history {
					if v, ok := value(data, r.Server, r.Key); ok {
						out[r.Server+"/"+r.Key] = v
					}
				}
				return out
			}
			ok = reflect.DeepEqual(norm(want), norm(a.Data))
		})
		k.RunUntil(time.Minute)
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// acceptAll is a transaction manager that lets every transaction join.
type acceptAll struct{}

func (acceptAll) Join(t tid.TID, anc []tid.TID, p server.Participant) error { return nil }

// TestServerCannotWriteIntoTheImage: a server recovered from the page
// image shares the image's chunks, and so does every clone of the
// image a later checkpoint or recovery redoes the log onto. None of
// them may write a byte another can reach. After a checkpoint, a server
// is recovered from the image and churns: overwrites, aborted
// overwrites and inserts (an insert's undo removes it), a value longer
// than a chunk, and enough overwrites to compact, with a second
// checkpoint after its first families and a recovery from the image
// at the end. The server reads its own values after every family, the
// image recovered over an empty log reads exactly what the second
// checkpoint absorbed, and the image with the log's tail redone reads
// what the server does.
func TestServerCannotWriteIntoTheImage(t *testing.T) {
	const chunk = 16 << 10 // the segment package's chunk size
	k := sim.New(1)
	ps := NewPageStore()
	k.Go("test", func() {
		defer k.Stop()
		log := wal.Open(k, wal.NewMemStore(), wal.Config{})
		defer log.Close()
		model := make(map[string]string) // what the server must read
		var named []string               // every key written, in order
		for i := 0; i < 10; i++ {
			key := "k" + strconv.Itoa(i)
			log.Append(upd(top(1), key, "v"+strconv.Itoa(i))) //nolint:errcheck // checked by the force
			model[key] = "v" + strconv.Itoa(i)
			named = append(named, key)
		}
		log.Append(&wal.Record{Type: wal.RecCommit, TID: top(1)}) //nolint:errcheck // checked by the force
		if err := log.Force(math.MaxUint64); err != nil {
			t.Error(err)
			return
		}
		if _, err := Checkpoint(1, log, ps); err != nil {
			t.Error(err)
			return
		}
		a, err := Recover(1, log, ps)
		if err != nil {
			t.Error(err)
			return
		}
		srv := server.New(k, "srv", acceptAll{}, log, server.Config{})
		srv.Install(a.Data["srv"])

		// check fails t unless srv reads model's value of every named key.
		check := func(when string) bool {
			for _, key := range named {
				v, ok := srv.Peek(key)
				if want, in := model[key]; ok != in || string(v) != want {
					t.Errorf("%s: the server reads %.12s = %.12q, %v; want %.12q, %v", when, key, v, ok, want, in)
					return false
				}
			}
			return true
		}
		// family runs one family of writes, key and value in turn, and
		// commits or aborts it.
		n := uint32(1)
		family := func(commit bool, kv ...string) bool {
			n++
			tx := top(n)
			for i := 0; i < len(kv); i += 2 {
				if err := srv.Write(tx, nil, kv[i], []byte(kv[i+1])); err != nil {
					t.Error(err)
					return false
				}
				named = append(named, kv[i])
			}
			outcome := &wal.Record{Type: wal.RecAbort, TID: tx}
			if commit {
				outcome.Type = wal.RecCommit
			}
			if _, err := log.Append(outcome); err != nil {
				t.Error(err)
				return false
			}
			if err := log.Force(math.MaxUint64); err != nil {
				t.Error(err)
				return false
			}
			if commit {
				srv.CommitFamily(tx.Family)
				for i := 0; i < len(kv); i += 2 {
					model[kv[i]] = kv[i+1]
				}
			} else {
				srv.AbortFamily(tx.Family)
			}
			return check(fmt.Sprintf("after family %d", n))
		}

		if !family(false, "k0", "aborted") ||
			!family(false, "new", "inserted") ||
			!family(true, "k1", "committed after the image") {
			return
		}
		if _, err := Checkpoint(1, log, ps); err != nil {
			t.Error(err)
			return
		}
		image := make(map[string]string, len(model))
		for key, v := range model {
			image[key] = v
		}
		if !check("after the second checkpoint") ||
			!family(true, "big", strings.Repeat("b", chunk+1), "k3", "three") ||
			!family(false, "big", strings.Repeat("B", chunk+100), "k4", "aborted", "gone", "x") ||
			!family(true, "k5", "") {
			return
		}
		for i := 0; i < 200; i++ {
			if !family(i%10 != 9, "k2", strings.Repeat(strconv.Itoa(i%10), 200)) {
				return
			}
		}

		empty := wal.Open(k, wal.NewMemStore(), wal.Config{})
		defer empty.Close()
		for _, over := range []struct {
			name string
			log  *wal.Log
			want map[string]string
		}{{"the image alone", empty, image}, {"the image and the log's tail", log, model}} {
			a, err := Recover(1, over.log, ps)
			if err != nil {
				t.Error(err)
				return
			}
			for _, key := range named {
				v, ok := value(a.Data, "srv", key)
				if want, in := over.want[key]; ok != in || v != want {
					t.Errorf("recovered from %s: %.12s = %.12q, %v; want %.12q, %v", over.name, key, v, ok, want, in)
				}
			}
		}
		check("after the recoveries")
	})
	k.RunUntil(time.Hour)
}

// outcomesOf lists a table's outcomes as a map, for comparison.
func outcomesOf(t *recman.OutcomeTable) map[tid.FamilyID]wire.Outcome {
	m := make(map[tid.FamilyID]wire.Outcome)
	t.Range(func(f tid.FamilyID, o wire.Outcome) { m[f] = o })
	return m
}
