package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"camelot/internal/rt"
	"camelot/internal/sim"
	"camelot/internal/tid"
	"camelot/internal/trace"
	"camelot/internal/wire"
)

// batch is three records of different shapes — what one commit's
// device write carries.
func batch(firstLSN uint64) []*Record {
	return []*Record{
		{LSN: firstLSN, Type: RecUpdate, TID: testTID(7), Server: "srv", Key: "k", Old: []byte("old"), New: []byte("new value")},
		{LSN: firstLSN + 1, Type: RecUpdate, TID: testTID(7), Server: "srv", Key: "another key", New: []byte("v")},
		{LSN: firstLSN + 2, Type: RecCommit, TID: testTID(7)},
	}
}

func TestEncodedSizeIsExact(t *testing.T) {
	recs := append(batch(1),
		&Record{LSN: 9, Type: RecPaxosAccept, TID: testTID(3), Ballot: 7, Acceptors: []tid.SiteID{1, 2, 3}},
	)
	for _, r := range recs {
		if got, want := encodedSize(r), len(marshal(r)); got != want {
			t.Errorf("%s: encodedSize = %d, encoding is %d bytes", r.Type, got, want)
		}
	}
}

// forceBatches drives a log on the real runtime: each group of records
// is appended and then forced as one device write.
func forceBatches(t *testing.T, l *Log, groups ...[]*Record) {
	t.Helper()
	for _, g := range groups {
		for _, r := range g {
			if _, err := l.Append(r); err != nil {
				t.Fatalf("Append: %v", err)
			}
		}
		if err := l.ForceAll(); err != nil {
			t.Fatalf("ForceAll: %v", err)
		}
	}
}

func TestMultiRecordBlockRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	file, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	for name, store := range map[string]Store{"mem": NewMemStore(), "file": file} {
		t.Run(name, func(t *testing.T) {
			l := Open(rt.Real(), store, Config{GroupCommit: true})
			defer l.Close()
			first, second := batch(0), batch(0)[:2]
			forceBatches(t, l, first, second)
			blocks, err := store.Blocks()
			if err != nil {
				t.Fatal(err)
			}
			if len(blocks) != 2 {
				t.Fatalf("store holds %d blocks after two forces, want 2", len(blocks))
			}
			if got := BlockType(blocks[0]); got != "UPDATE+UPDATE+COMMIT" {
				t.Errorf("first block carries %s, want UPDATE+UPDATE+COMMIT", got)
			}
			if l.DeviceWrites() != 2 || l.Appends() != 5 {
				t.Errorf("DeviceWrites, Appends = %d, %d, want 2, 5", l.DeviceWrites(), l.Appends())
			}
			recs, err := l.Records()
			if err != nil {
				t.Fatal(err)
			}
			want := append(first, second...)
			if !reflect.DeepEqual(recs, want) {
				t.Fatalf("read back %d records %+v, want the 5 written", len(recs), recs)
			}
			for i, r := range recs {
				if r.LSN != uint64(i+1) {
					t.Errorf("record %d has LSN %d", i, r.LSN)
				}
			}
		})
	}

	// The file's blocks survive a reopen.
	file.Close()
	reopened, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	recs, err := readRecords(reopened)
	if err != nil || len(recs) != 5 {
		t.Fatalf("after reopen: %d records, err %v", len(recs), err)
	}
}

// checkTornTail reads store, whose final block is final[:cut] behind
// one good single-record block, and checks that exactly the whole
// frames below the cut survive, that the store is repaired, and that
// a later device write lands behind the repair and reads back.
func checkTornTail(t *testing.T, store Store, final []byte, cut int) {
	t.Helper()
	whole := 0
	for _, end := range FrameEnds(final) {
		if end <= cut {
			whole++
		}
	}
	want := append([]*Record{{LSN: 1, Type: RecCommit, TID: testTID(1)}}, batch(2)[:whole]...)

	recs, err := readRecords(store)
	if err != nil {
		t.Fatalf("cut %d: Records: %v", cut, err)
	}
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("cut %d: got %d records, want exactly the %d below the cut", cut, len(recs), len(want))
	}
	blocks, err := store.Blocks()
	if err != nil {
		t.Fatal(err)
	}
	wantBlocks := 1
	if whole > 0 {
		wantBlocks = 2
	}
	if len(blocks) != wantBlocks {
		t.Fatalf("cut %d: repaired store holds %d blocks, want %d", cut, len(blocks), wantBlocks)
	}
	for i, b := range blocks {
		if _, _, err := decodeBlock(b); err != nil {
			t.Fatalf("cut %d: block %d still damaged after repair: %v", cut, i, err)
		}
	}

	next := &Record{LSN: uint64(len(want) + 1), Type: RecAbort, TID: testTID(9)}
	if err := store.Append(block(next)); err != nil {
		t.Fatal(err)
	}
	recs, err = readRecords(store)
	if err != nil || !reflect.DeepEqual(recs, append(want, next)) {
		t.Fatalf("cut %d: after repair and append: %d records, err %v", cut, len(recs), err)
	}
}

func TestTornFinalBlockKeepsWholeFramePrefix(t *testing.T) {
	good := block(&Record{LSN: 1, Type: RecCommit, TID: testTID(1)})
	final := block(batch(2)...)

	t.Run("mem", func(t *testing.T) {
		for cut := 0; cut < len(final); cut++ {
			store := NewMemStore()
			store.Append(good)
			store.Append(final[:cut])
			checkTornTail(t, store, final, cut)
		}
	})

	// On a file the write itself is cut short: the length prefix
	// promises the whole block and the bytes stop early, anywhere from
	// inside the prefix on.
	t.Run("file", func(t *testing.T) {
		dir := t.TempDir()
		image := appendPrefixed(appendPrefixed(nil, good), final)
		goodLen := 4 + len(good)
		for fileCut := goodLen + 1; fileCut < len(image); fileCut++ {
			path := filepath.Join(dir, fmt.Sprintf("wal-%d", fileCut))
			if err := os.WriteFile(path, image[:fileCut], 0o644); err != nil {
				t.Fatal(err)
			}
			store, err := OpenFileStore(path)
			if err != nil {
				t.Fatal(err)
			}
			checkTornTail(t, store, final, max(0, fileCut-goodLen-4))
			store.Close()
		}
	})
}

func TestDamagedFrameInNonFinalBlockIsCorruption(t *testing.T) {
	first := block(batch(1)...)
	ends := FrameEnds(first)
	first[ends[1]-1] ^= 0x01 // the second record's CRC
	store := NewMemStore()
	store.Append(first)
	store.Append(block(&Record{LSN: 4, Type: RecCommit, TID: testTID(2)}))
	_, err := readRecords(store)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Records err = %v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), "last good LSN 1") {
		t.Errorf("error %q does not name the last good LSN (the frame before the damage)", err)
	}
	if store.Len() != 2 {
		t.Errorf("store modified on refusal: %d blocks, want 2", store.Len())
	}
}

// slowStore holds every Append for a fixed stretch of virtual time and
// counts the calls: the device the log's writer parks forcers behind.
type slowStore struct {
	*MemStore
	k       *sim.Kernel
	appends int
}

func (s *slowStore) Append(b []byte) error {
	s.appends++
	s.k.Sleep(10 * time.Millisecond)
	return s.MemStore.Append(b)
}

func TestConcurrentForcersShareOneAppend(t *testing.T) {
	// One force occupies the device; two more arrive while it is busy.
	run := func(groupCommit bool) (*slowStore, *Log) {
		k := sim.New(1)
		store := &slowStore{MemStore: NewMemStore(), k: k}
		var l *Log
		forcer := func(n uint32) func() {
			return func() {
				lsn, err := l.Append(&Record{Type: RecCommit, TID: testTID(n)})
				if err == nil {
					err = l.Force(lsn)
				}
				if err != nil {
					t.Errorf("forcer %d: %v", n, err)
				}
			}
		}
		k.Go("main", func() {
			l = Open(k, store, Config{GroupCommit: groupCommit})
			k.Go("first", forcer(1))
			k.Sleep(time.Millisecond)
			k.Go("parked-a", forcer(2))
			k.Go("parked-b", forcer(3))
		})
		k.Run()
		l.Close()
		return store, l
	}

	store, l := run(true)
	if store.appends != 2 {
		t.Errorf("group commit: %d Store.Appends for 3 forces, want 2 (the parked pair shares one)", store.appends)
	}
	blocks, _ := store.Blocks()
	if len(blocks) != 2 || BlockType(blocks[1]) != "COMMIT+COMMIT" {
		t.Errorf("group commit: second block is %q, want both parked records in it", BlockType(blocks[len(blocks)-1]))
	}
	if l.DeviceWrites() != store.appends {
		t.Errorf("DeviceWrites = %d, store saw %d appends", l.DeviceWrites(), store.appends)
	}

	store, l = run(false)
	if store.appends != 3 {
		t.Errorf("no group commit: %d Store.Appends for 3 forces, want exactly one each", store.appends)
	}
	if l.DeviceWrites() != store.appends {
		t.Errorf("DeviceWrites = %d, store saw %d appends", l.DeviceWrites(), store.appends)
	}
}

func TestFailedAppendIsNotADeviceWrite(t *testing.T) {
	fs := NewFaultStore(NewMemStore(), nil)
	fs.ArmAppend(1, DamageLost)
	tr := trace.New(rt.Real())
	l := Open(rt.Real(), fs, Config{GroupCommit: true, Trace: tr})
	defer l.Close()
	forceBatches(t, l, batch(0))
	l.Append(&Record{Type: RecCommit, TID: testTID(8)}) //nolint:errcheck // the force below reports the failure
	if err := l.ForceAll(); !errors.Is(err, ErrClosed) {
		t.Fatalf("force over a dead device = %v, want ErrClosed (fail-stop)", err)
	}
	if l.DeviceWrites() != 1 {
		t.Errorf("DeviceWrites = %d, want 1: the refused write reached no device", l.DeviceWrites())
	}
	writes := 0
	for _, ev := range tr.Events() {
		if ev.Kind == trace.EvDeviceWrite {
			writes++
		}
	}
	if tr.Site(0).DeviceWrites != 1 || writes != 1 {
		t.Errorf("ledger counts %d device writes and the timeline %d, want 1: the refused write is none",
			tr.Site(0).DeviceWrites, writes)
	}
}

func TestTruncateRoundsDownToBlock(t *testing.T) {
	store := NewMemStore()
	l := Open(rt.Real(), store, Config{GroupCommit: true})
	defer l.Close()
	forceBatches(t, l, batch(0)[:2], batch(0), batch(0)[2:]) // blocks of 2, 3 and 1 records
	for _, step := range []struct{ ask, dropped, left int }{
		{0, 0, 6},
		{1, 0, 6}, // inside the first block
		{4, 2, 4}, // inside the second: only the first goes
		{2, 0, 4}, // now inside what became the first
		{9, 4, 0}, // more than there is
	} {
		got, err := l.Truncate(step.ask)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := l.Records()
		if err != nil {
			t.Fatal(err)
		}
		if got != step.dropped || len(recs) != step.left {
			t.Errorf("Truncate(%d) dropped %d leaving %d records, want %d leaving %d",
				step.ask, got, len(recs), step.dropped, step.left)
		}
	}
}

var errDevice = errors.New("input/output error")

func TestReadBlocksReturnsDeviceErrors(t *testing.T) {
	image := appendPrefixed(appendPrefixed(nil, []byte("first")), []byte("second"))
	for cut := 1; cut < len(image); cut++ {
		// The device fails after cut bytes with more still to come.
		r := io.MultiReader(bytes.NewReader(image[:cut]), iotest.ErrReader(errDevice))
		blocks, _, err := readBlocks(r, int64(len(image)))
		if !errors.Is(err, errDevice) {
			t.Fatalf("device failing at byte %d: got %d blocks, err %v; want the device's error", cut, len(blocks), err)
		}
	}
	// Running out of bytes, by contrast, is a torn tail, not an error.
	blocks, whole, err := readBlocks(bytes.NewReader(image[:len(image)-2]), int64(len(image)-2))
	if err != nil || len(blocks) != 2 || string(blocks[1]) != "seco" || whole != 4+5 {
		t.Fatalf("short file: blocks %q, %d whole bytes, err %v; want the torn block's surviving bytes behind 9 whole ones", blocks, whole, err)
	}
}

func TestFileStoreBoundsCorruptLength(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	good := block(&Record{LSN: 1, Type: RecCommit, TID: testTID(1)})
	image := appendPrefixed(nil, good)
	image = binary.BigEndian.AppendUint32(image, 0xFFFF_FFF0) // a length no file backs
	image = append(image, 1, 2, 3)
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	blocks, err := s.Blocks()
	runtime.ReadMemStats(&after)
	if err != nil || len(blocks) != 2 || len(blocks[1]) != 3 {
		t.Fatalf("Blocks = %d blocks, err %v; want the good block and the 3 bytes behind the bad length", len(blocks), err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("Blocks allocated %d bytes for a %d-byte file", grew, len(image))
	}
	recs, err := readRecords(s)
	if err != nil || len(recs) != 1 {
		t.Fatalf("Records over the damaged tail: %d records, err %v", len(recs), err)
	}
}

// FuzzBlockFrames feeds arbitrary bytes to recovery as the log's final
// block. Whatever they are, recovery must not panic, must return only
// records whose frames check out — re-encoding them reproduces exactly
// the prefix of the input it accepted — and must leave a store that
// reads back the same records with nothing left to repair.
func FuzzBlockFrames(f *testing.F) {
	whole := block(batch(2)...)
	f.Add(whole)
	f.Add(whole[:len(whole)-3])
	f.Add(whole[:5])
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0})
	flipped := append([]byte(nil), whole...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	f.Add(append(append([]byte(nil), whole...), 0, 0, 0, 0))

	f.Fuzz(func(t *testing.T, final []byte) {
		recs, good, decErr := decodeBlock(final)
		if !bytes.Equal(block(recs...), final[:good]) {
			t.Fatalf("accepted %d records that do not re-encode to the %d-byte prefix they came from", len(recs), good)
		}
		if decErr == nil && good != len(final) {
			t.Fatalf("whole block, yet only %d of %d bytes accepted", good, len(final))
		}

		store := NewMemStore()
		store.Append(block(&Record{LSN: 1, Type: RecCommit, TID: testTID(1)}))
		store.Append(final)
		first, err := readRecords(store)
		if err != nil {
			t.Fatalf("damage in the final block must be repaired, not refused: %v", err)
		}
		if len(first) != 1+len(recs) {
			t.Fatalf("Records returned %d records, want the good block's 1 + %d", len(first), len(recs))
		}
		before := store.Len()
		again, err := readRecords(store)
		if err != nil || !reflect.DeepEqual(first, again) || store.Len() != before {
			t.Fatalf("second read differs or repaired again: %d vs %d records, err %v", len(again), len(first), err)
		}
	})
}

// FuzzRecord drives the record codec's field decoder, which random
// bytes reach through FuzzBlockFrames only past a CRC check: the
// fuzzer picks a record body and the harness seals it with its
// checksum. Decoding must not panic, and a record it accepts must
// re-encode to exactly the bytes it came from.
func FuzzRecord(f *testing.F) {
	recs := append(batch(1),
		&Record{LSN: 4, Type: RecPrepare, TID: testTID(7), Coordinator: 1, Sites: []tid.SiteID{1, 2, 3},
			CommitQuorum: 2, AbortQuorum: 2, Votes: []wire.SiteVote{{Site: 2, Vote: wire.VoteYes}}},
		&Record{LSN: 5, Type: RecPaxosAccept, TID: testTID(3), Ballot: 7, Acceptors: []tid.SiteID{1, 2, 3}},
	)
	for _, r := range recs {
		b := marshal(r)
		f.Add(b[:len(b)-4])
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		sealed := binary.BigEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
		r, err := unmarshal(sealed)
		if err != nil {
			return
		}
		if again := marshal(r); !bytes.Equal(again, sealed) {
			t.Fatalf("%s record re-encodes to %d bytes, decoded from %d", r.Type, len(again), len(sealed))
		}
	})
}

// Many goroutines forcing through one log on the real runtime: the
// counter appendBlock keeps must agree with what the store saw, and
// blocks must land in LSN order (run under -race).
func TestDeviceWritesMatchStoreUnderConcurrency(t *testing.T) {
	store := NewMemStore()
	l := Open(rt.Real(), store, Config{GroupCommit: true})
	defer l.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				lsn, err := l.Append(&Record{Type: RecCommit, TID: testTID(uint32(g*100 + i))})
				if err == nil {
					err = l.Force(lsn)
				}
				if err != nil {
					t.Errorf("forcer %d: %v", g, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if l.DeviceWrites() != store.Len() {
		t.Errorf("DeviceWrites = %d, store holds %d blocks", l.DeviceWrites(), store.Len())
	}
	recs, err := l.Records()
	if err != nil || len(recs) != 200 {
		t.Fatalf("%d records, err %v; want 200", len(recs), err)
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d: blocks out of order", i, r.LSN)
		}
	}
}
