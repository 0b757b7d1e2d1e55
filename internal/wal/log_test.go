package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"camelot/internal/sim"
	"camelot/internal/tid"
	"camelot/internal/wire"
)

func testTID(n uint32) tid.TID { return tid.Top(tid.MakeFamily(1, n)) }

// marshal encodes one record as a frame's payload: body ‖ CRC32.
func marshal(r *Record) []byte { return appendRecord(nil, r) }

// block frames recs the way the log does for one device write.
func block(recs ...*Record) []byte {
	var b []byte
	for _, r := range recs {
		b = appendFrame(b, r, encodedSize(r))
	}
	return b
}

func TestRecordRoundTrip(t *testing.T) {
	r := &Record{
		LSN: 42, Type: RecUpdate, TID: testTID(7),
		Server: "bank", Key: "acct/1", Old: []byte("100"), New: []byte("90"),
		Coordinator: 2, Sites: []tid.SiteID{1, 2, 3},
		CommitQuorum: 2, AbortQuorum: 2,
		Votes: []wire.SiteVote{{Site: 1, Vote: wire.VoteYes}},
	}
	got, err := unmarshal(marshal(r))
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(r, got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", r, got)
	}
}

func TestRecordRoundTripProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := &Record{
			LSN:  rng.Uint64(),
			Type: RecType(1 + rng.Intn(int(RecEnd))),
			TID:  tid.TID{Family: tid.FamilyID(rng.Uint64()), Seq: tid.Seq(rng.Uint64())},
		}
		if rng.Intn(2) == 0 {
			r.Server = fmt.Sprintf("srv%d", rng.Intn(100))
			r.Key = fmt.Sprintf("key%d", rng.Intn(100))
			r.Old = make([]byte, rng.Intn(64))
			rng.Read(r.Old)
			r.New = make([]byte, rng.Intn(64))
			rng.Read(r.New)
			// Absent values too: nil and empty are different values.
			if rng.Intn(4) == 0 {
				r.Old = nil
			}
			if rng.Intn(4) == 0 {
				r.New = nil
			}
		}
		got, err := unmarshal(marshal(r))
		return err == nil && reflect.DeepEqual(r, got)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestRecordValuePresence pins the codec's three kinds of Old/New
// value. Absent (nil) encodes as length 0, as it always has, so a
// record without an empty value is byte for byte what earlier code
// wrote; a present empty value encodes as the emptyValue length and
// decodes non-nil, so recovery redoes a committed empty write as a
// write, not a delete, and undoes an overwrite of an empty value back
// to it.
func TestRecordValuePresence(t *testing.T) {
	values := []struct {
		name   string
		v      []byte
		length uint32 // the length field appendValue writes
	}{
		{"absent", nil, 0},
		{"empty", []byte{}, emptyValue},
		{"bytes", []byte("v1"), 2},
	}
	for _, old := range values {
		for _, new_ := range values {
			r := &Record{
				LSN: 9, Type: RecUpdate, TID: testTID(3),
				Server: "srv", Key: "k", Old: old.v, New: new_.v,
			}
			b := marshal(r)
			if len(b) != encodedSize(r) {
				t.Errorf("Old %s, New %s: %d bytes, encodedSize says %d", old.name, new_.name, len(b), encodedSize(r))
			}
			// The Old length follows LSN, type, TID, parent, server, key.
			at := 8 + 1 + 4*8 + 4 + len(r.Server) + 4 + len(r.Key)
			if got := binary.BigEndian.Uint32(b[at:]); got != old.length {
				t.Errorf("Old %s encodes length %#x, want %#x", old.name, got, old.length)
			}
			at += 4 + len(r.Old)
			if got := binary.BigEndian.Uint32(b[at:]); got != new_.length {
				t.Errorf("New %s encodes length %#x, want %#x", new_.name, got, new_.length)
			}
			got, err := unmarshal(b)
			if err != nil {
				t.Fatalf("Old %s, New %s: %v", old.name, new_.name, err)
			}
			if (got.Old == nil) != (old.v == nil) || !bytes.Equal(got.Old, old.v) ||
				(got.New == nil) != (new_.v == nil) || !bytes.Equal(got.New, new_.v) {
				t.Errorf("Old %s, New %s: decoded Old %#v, New %#v", old.name, new_.name, got.Old, got.New)
			}
		}
	}
}

func TestRecordCorruptionDetected(t *testing.T) {
	b := marshal(&Record{LSN: 1, Type: RecCommit, TID: testTID(1)})
	for i := range b {
		bad := make([]byte, len(b))
		copy(bad, b)
		bad[i] ^= 0x40
		if _, err := unmarshal(bad); err == nil {
			t.Fatalf("flipping byte %d went undetected", i)
		}
	}
}

func TestAppendAssignsAscendingLSNs(t *testing.T) {
	k := sim.New(1)
	k.Go("main", func() {
		l := Open(k, NewMemStore(), Config{ForceLatency: time.Millisecond})
		defer l.Close()
		var prev uint64
		for i := 0; i < 10; i++ {
			lsn, err := l.Append(&Record{Type: RecCommit, TID: testTID(uint32(i))})
			if err != nil {
				t.Errorf("Append: %v", err)
			}
			if lsn <= prev {
				t.Errorf("LSN %d not ascending after %d", lsn, prev)
			}
			prev = lsn
		}
	})
	k.Run()
}

func TestForceMakesDurable(t *testing.T) {
	k := sim.New(1)
	store := NewMemStore()
	k.Go("main", func() {
		l := Open(k, store, Config{ForceLatency: 15 * time.Millisecond})
		defer l.Close()
		lsn, _ := l.Append(&Record{Type: RecCommit, TID: testTID(1)})
		if store.Len() != 0 {
			t.Error("record durable before force")
		}
		start := k.Now()
		if err := l.Force(lsn); err != nil {
			t.Errorf("Force: %v", err)
		}
		if got := k.Now() - start; got != 15*time.Millisecond {
			t.Errorf("force took %v, want 15ms", got)
		}
		if store.Len() != 1 {
			t.Errorf("store has %d blocks after force, want 1", store.Len())
		}
		recs, err := l.Records()
		if err != nil || len(recs) != 1 || recs[0].TID != testTID(1) {
			t.Errorf("Records() = %v, %v", recs, err)
		}
	})
	k.Run()
	if msg := k.Deadlocked(); msg != "" {
		t.Fatal(msg)
	}
}

func TestForceAlreadyDurableIsFree(t *testing.T) {
	k := sim.New(1)
	k.Go("main", func() {
		l := Open(k, NewMemStore(), Config{ForceLatency: 15 * time.Millisecond})
		defer l.Close()
		lsn, _ := l.Append(&Record{Type: RecCommit, TID: testTID(1)})
		l.Force(lsn)
		start := k.Now()
		l.Force(lsn)
		if got := k.Now() - start; got != 0 {
			t.Errorf("second force of same LSN took %v, want 0", got)
		}
		if l.DeviceWrites() != 1 {
			t.Errorf("DeviceWrites = %d, want 1", l.DeviceWrites())
		}
	})
	k.Run()
}

func TestGroupCommitBatchesConcurrentForces(t *testing.T) {
	// 10 committers force concurrently. With group commit the device
	// should see at most 2 writes (the first force plus one batch);
	// without, 10.
	run := func(gc bool) (writes int, elapsed time.Duration) {
		k := sim.New(1)
		var l *Log
		k.Go("main", func() {
			l = Open(k, NewMemStore(), Config{GroupCommit: gc, ForceLatency: 15 * time.Millisecond})
			for i := 0; i < 10; i++ {
				i := i
				k.Go(fmt.Sprintf("committer%d", i), func() {
					lsn, _ := l.Append(&Record{Type: RecCommit, TID: testTID(uint32(i))})
					l.Force(lsn)
				})
			}
		})
		elapsed = k.Run()
		writes = l.DeviceWrites()
		l.Close()
		return
	}
	gcWrites, gcTime := run(true)
	plainWrites, plainTime := run(false)
	if gcWrites > 2 {
		t.Errorf("group commit used %d device writes for 10 committers, want ≤2", gcWrites)
	}
	if plainWrites != 10 {
		t.Errorf("ungrouped log used %d device writes, want 10", plainWrites)
	}
	if gcTime >= plainTime {
		t.Errorf("group commit not faster: %v vs %v", gcTime, plainTime)
	}
}

func TestWaitDurableSatisfiedByOthersForce(t *testing.T) {
	k := sim.New(1)
	k.Go("main", func() {
		l := Open(k, NewMemStore(), Config{GroupCommit: true, ForceLatency: 15 * time.Millisecond})
		defer l.Close()
		lazy, _ := l.Append(&Record{Type: RecCommit, TID: testTID(1)})
		done := false
		k.Go("waiter", func() {
			if err := l.WaitDurable(lazy); err != nil {
				t.Errorf("WaitDurable: %v", err)
			}
			done = true
		})
		k.Sleep(time.Millisecond)
		forced, _ := l.Append(&Record{Type: RecCommit, TID: testTID(2)})
		l.Force(forced)
		k.Sleep(time.Millisecond)
		if !done {
			t.Error("WaitDurable not satisfied by a covering force")
		}
	})
	k.Run()
}

func TestFlusherMakesLazyRecordsDurable(t *testing.T) {
	k := sim.New(1)
	k.Go("main", func() {
		l := Open(k, NewMemStore(), Config{
			ForceLatency:  15 * time.Millisecond,
			FlushInterval: 50 * time.Millisecond,
		})
		defer l.Close()
		lsn, _ := l.Append(&Record{Type: RecCommit, TID: testTID(1)})
		start := k.Now()
		if err := l.WaitDurable(lsn); err != nil {
			t.Errorf("WaitDurable: %v", err)
		}
		// One flush interval plus the device write.
		if got := k.Now() - start; got != 65*time.Millisecond {
			t.Errorf("lazy durability took %v, want 65ms", got)
		}
	})
	k.Run()
}

func TestCloseLosesBufferedRecords(t *testing.T) {
	k := sim.New(1)
	store := NewMemStore()
	k.Go("main", func() {
		l := Open(k, store, Config{ForceLatency: time.Millisecond})
		forced, _ := l.Append(&Record{Type: RecPrepare, TID: testTID(1)})
		l.Force(forced)
		l.Append(&Record{Type: RecCommit, TID: testTID(1)}) // never forced
		l.Close()
		recs, err := l.Records()
		if err != nil {
			t.Errorf("Records: %v", err)
		}
		if len(recs) != 1 || recs[0].Type != RecPrepare {
			t.Errorf("after crash got %d records, want only the forced PREPARE", len(recs))
		}
	})
	k.Run()
}

func TestOperationsAfterCloseFail(t *testing.T) {
	k := sim.New(1)
	k.Go("main", func() {
		l := Open(k, NewMemStore(), Config{ForceLatency: time.Millisecond})
		lsn, _ := l.Append(&Record{Type: RecCommit, TID: testTID(1)})
		l.Close()
		if _, err := l.Append(&Record{Type: RecCommit, TID: testTID(2)}); err != ErrClosed {
			t.Errorf("Append after close: %v, want ErrClosed", err)
		}
		if err := l.Force(lsn); err != ErrClosed {
			t.Errorf("Force after close: %v, want ErrClosed", err)
		}
	})
	k.Run()
	if msg := k.Deadlocked(); msg != "" {
		t.Fatal(msg)
	}
}

func TestFileStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Append(block(&Record{LSN: uint64(i + 1), Type: RecCommit, TID: testTID(uint32(i))})); err != nil {
			t.Fatal(err)
		}
	}
	blocks, err := s.Blocks()
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 5 {
		t.Fatalf("got %d blocks, want 5", len(blocks))
	}
	s.Close()

	// Reopen: contents must survive.
	s2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	blocks, err = s2.Blocks()
	if err != nil || len(blocks) != 5 {
		t.Fatalf("after reopen: %d blocks, err %v", len(blocks), err)
	}
	recs, _, err := decodeBlock(blocks[4])
	if err != nil || len(recs) != 1 || recs[0].LSN != 5 {
		t.Fatalf("block 4 = %+v, %v", recs, err)
	}
	// Appends after reopen must continue the log.
	if err := s2.Append(block(&Record{LSN: 6, Type: RecAbort, TID: testTID(9)})); err != nil {
		t.Fatal(err)
	}
	blocks, _ = s2.Blocks()
	if len(blocks) != 6 {
		t.Fatalf("after reopen+append: %d blocks, want 6", len(blocks))
	}
}

// A file store refuses to drop its head, which it cannot do
// crash-safely, and keeps every block; dropping nothing succeeds.
func TestFileStoreRefusesTruncate(t *testing.T) {
	s, err := OpenFileStore(filepath.Join(t.TempDir(), "wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 3; i++ {
		if err := s.Append(block(&Record{LSN: uint64(i + 1), Type: RecCommit, TID: testTID(uint32(i))})); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Truncate(0); err != nil {
		t.Errorf("Truncate(0) = %v, want nil", err)
	}
	if err := s.Truncate(2); err == nil {
		t.Error("Truncate(2) succeeded, want a refusal")
	}
	if blocks, err := s.Blocks(); err != nil || len(blocks) != 3 {
		t.Fatalf("after refused truncate: %d blocks, err %v; want all 3", len(blocks), err)
	}
}

// readRecords opens a log over store inside a kernel and calls
// Records once.
func readRecords(store Store) ([]*Record, error) {
	var recs []*Record
	var err error
	k := sim.New(1)
	k.Go("main", func() {
		l := Open(k, store, Config{})
		defer l.Close()
		recs, err = l.Records()
	})
	k.Run()
	return recs, err
}

func TestRecordsTruncatesTornTail(t *testing.T) {
	// A bad *final* block is a torn write: the record was never
	// acknowledged, so recovery truncates it — and repairs the store,
	// so later appends never sit behind the damage.
	store := NewMemStore()
	store.Append(block(&Record{LSN: 1, Type: RecCommit, TID: testTID(1)}))
	full := block(&Record{LSN: 2, Type: RecCommit, TID: testTID(2)})
	store.Append(full[:len(full)/2]) // torn tail
	recs, err := readRecords(store)
	if err != nil {
		t.Fatalf("Records: %v", err)
	}
	if len(recs) != 1 || recs[0].LSN != 1 {
		t.Fatalf("got %d records, want the 1 good one", len(recs))
	}
	if store.Len() != 1 {
		t.Errorf("store holds %d blocks after repair, want 1", store.Len())
	}
	// The repaired store accepts appends and reads back cleanly.
	store.Append(block(&Record{LSN: 2, Type: RecAbort, TID: testTID(3)}))
	recs, err = readRecords(store)
	if err != nil || len(recs) != 2 {
		t.Fatalf("after repair+append: %d records, err %v", len(recs), err)
	}
}

func TestRecordsBitFlippedTailTruncated(t *testing.T) {
	// A final block whose CRC fails (one flipped bit) is
	// indistinguishable from a torn write and gets the same repair.
	store := NewMemStore()
	store.Append(block(&Record{LSN: 1, Type: RecCommit, TID: testTID(1)}))
	bad := block(&Record{LSN: 2, Type: RecCommit, TID: testTID(2)})
	bad[len(bad)-1] ^= 0x01 // flip a bit inside the CRC itself
	store.Append(bad)
	recs, err := readRecords(store)
	if err != nil {
		t.Fatalf("Records: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	if store.Len() != 1 {
		t.Errorf("store holds %d blocks after repair, want 1", store.Len())
	}
}

func TestRecordsFailsOnMidLogCorruption(t *testing.T) {
	// A corrupt block with good blocks after it cannot be a torn
	// write — it is silent corruption of acknowledged history, and
	// recovery must refuse rather than quietly drop durable records.
	store := NewMemStore()
	store.Append(block(&Record{LSN: 1, Type: RecCommit, TID: testTID(1)}))
	store.Append([]byte{1, 2, 3}) // damaged, but not the tail
	store.Append(block(&Record{LSN: 3, Type: RecCommit, TID: testTID(3)}))
	_, err := readRecords(store)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Records err = %v, want ErrCorrupt", err)
	}
	// The error names the last good LSN so an operator knows what
	// survives.
	if !strings.Contains(err.Error(), "last good LSN 1") {
		t.Errorf("error %q does not name the last good LSN", err)
	}
	if store.Len() != 3 {
		t.Errorf("store modified on refusal: %d blocks, want 3", store.Len())
	}
}

func TestRecordsFailsOnBitFlipMidLog(t *testing.T) {
	// Same refusal when the damage is a single flipped bit in an
	// interior block's CRC.
	store := NewMemStore()
	bad := block(&Record{LSN: 1, Type: RecCommit, TID: testTID(1)})
	bad[len(bad)-1] ^= 0x01
	store.Append(bad)
	store.Append(block(&Record{LSN: 2, Type: RecCommit, TID: testTID(2)}))
	_, err := readRecords(store)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Records err = %v, want ErrCorrupt", err)
	}
}
