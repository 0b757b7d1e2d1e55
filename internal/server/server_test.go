package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"camelot/internal/det"
	"camelot/internal/params"
	"camelot/internal/recman"
	"camelot/internal/rt"
	"camelot/internal/segment"
	"camelot/internal/sim"
	"camelot/internal/tid"
	"camelot/internal/wal"
	"camelot/internal/wire"
)

// fakeJoiner records joins and always accepts.
type fakeJoiner struct {
	joins []tid.TID
	fail  bool
}

func (j *fakeJoiner) Join(t tid.TID, anc []tid.TID, p Participant) error {
	if j.fail {
		return errors.New("join refused")
	}
	j.joins = append(j.joins, t)
	return nil
}

type fixture struct {
	k   *sim.Kernel
	srv *Server
	log *wal.Log
	tm  *fakeJoiner
}

func newFixture() *fixture {
	k := sim.New(1)
	f := &fixture{k: k, tm: &fakeJoiner{}}
	f.log = wal.Open(k, wal.NewMemStore(), wal.Config{ForceLatency: time.Millisecond})
	f.srv = New(k, "srv", f.tm, f.log, Config{LockTimeout: 100 * time.Millisecond})
	return f
}

func (f *fixture) run(t *testing.T, fn func()) {
	t.Helper()
	f.k.Go("test", func() {
		fn()
		f.k.Stop()
	})
	f.k.RunUntil(time.Minute)
	if msg := f.k.Deadlocked(); msg != "" {
		t.Fatal(msg)
	}
}

func top(n uint32) tid.TID { return tid.Top(tid.MakeFamily(1, n)) }

// image returns a segment holding kv, as recovery hands one to Install.
func image(kv map[string]string) *segment.Segment {
	seg := segment.New(len(kv))
	for _, k := range det.SortedKeys(kv) {
		seg.Put(k, []byte(kv[k]))
	}
	return seg
}

// chunkSize is the segment package's chunk size: an entry longer than
// an eighth of it gets a chunk of its own size.
const chunkSize = 16 << 10

func TestWriteThenReadSameTransaction(t *testing.T) {
	f := newFixture()
	f.run(t, func() {
		tx := top(1)
		if err := f.srv.Write(tx, nil, "a", []byte("v")); err != nil {
			t.Fatalf("Write: %v", err)
		}
		got, err := f.srv.Read(tx, nil, "a")
		if err != nil || !bytes.Equal(got, []byte("v")) {
			t.Fatalf("Read = %q, %v", got, err)
		}
	})
}

func TestReadMissingKey(t *testing.T) {
	f := newFixture()
	f.run(t, func() {
		_, err := f.srv.Read(top(1), nil, "nope")
		if !errors.Is(err, ErrNoSuchKey) {
			t.Fatalf("Read(missing) = %v, want ErrNoSuchKey", err)
		}
	})
}

func TestFirstOperationJoinsExactlyOnce(t *testing.T) {
	f := newFixture()
	f.run(t, func() {
		tx := top(1)
		f.srv.Write(tx, nil, "a", []byte("1")) //nolint:errcheck
		f.srv.Write(tx, nil, "b", []byte("2")) //nolint:errcheck
		f.srv.Read(tx, nil, "a")               //nolint:errcheck
		if len(f.tm.joins) != 1 {
			t.Fatalf("joined %d times, want 1", len(f.tm.joins))
		}
	})
}

func TestJoinRefusalFailsOperation(t *testing.T) {
	f := newFixture()
	f.tm.fail = true
	f.run(t, func() {
		if err := f.srv.Write(top(1), nil, "a", []byte("1")); err == nil {
			t.Fatal("Write succeeded though join was refused")
		}
	})
}

// TestRetryAfterRefusedJoinAsksAgain is the regression test for a
// transaction marked joined before the transaction manager answered:
// after a refused join, a retry of the same write skipped the join,
// installed its value, kept its lock and voted Yes for a family the
// manager never heard of.
func TestRetryAfterRefusedJoinAsksAgain(t *testing.T) {
	f := newFixture()
	f.tm.fail = true
	f.run(t, func() {
		tx := top(1)
		for try := 1; try <= 2; try++ {
			if err := f.srv.Write(tx, nil, "a", []byte("1")); err == nil {
				t.Errorf("try %d: Write succeeded though the join was refused", try)
			}
		}
		if _, ok := f.srv.Peek("a"); ok {
			t.Error("a write whose join was refused installed its value")
		}
		if f.srv.Locks().HoldsAny(tx) {
			t.Error("a transaction whose join was refused holds locks")
		}
		if v := f.srv.Vote(tx.Family); v != wire.VoteReadOnly {
			t.Errorf("vote = %v after refused joins, want READ-ONLY", v)
		}
		f.tm.fail = false
		if err := f.srv.Write(tx, nil, "a", []byte("1")); err != nil {
			t.Errorf("Write after the manager accepts: %v", err)
		}
		if len(f.tm.joins) != 1 {
			t.Errorf("%d joins recorded, want 1", len(f.tm.joins))
		}
	})
}

// slowJoiner answers a join after a virtual-time delay, so two
// operations of one transaction can overlap its join.
type slowJoiner struct {
	k     *sim.Kernel
	joins int
	fail  bool
}

func (j *slowJoiner) Join(t tid.TID, anc []tid.TID, p Participant) error {
	j.k.Sleep(time.Millisecond)
	j.joins++
	if j.fail {
		return errors.New("join refused")
	}
	return nil
}

// TestConcurrentOperationsShareOneJoin: a second operation of a
// transaction whose join is in flight waits for that join's answer
// instead of asking at the same time. After an acceptance it goes on
// with no join of its own; after a refusal it asks again, and is
// refused too.
func TestConcurrentOperationsShareOneJoin(t *testing.T) {
	for _, fail := range []bool{false, true} {
		k := sim.New(1)
		tm := &slowJoiner{k: k, fail: fail}
		srv := New(k, "srv", tm, wal.Open(k, wal.NewMemStore(), wal.Config{}), Config{})
		var errs [2]error
		var done [2]time.Duration
		for i, key := range []string{"a", "b"} {
			k.Go("op "+key, func() {
				errs[i] = srv.Write(top(1), nil, key, []byte("v"))
				done[i] = time.Duration(k.Now())
			})
		}
		k.RunUntil(time.Minute)
		want := [2]time.Duration{time.Millisecond, time.Millisecond}
		if fail {
			want[1] = 2 * time.Millisecond // its own join, after the first was refused
		}
		if done != want || (errs[0] == nil) == fail || (errs[1] == nil) == fail || (!fail && tm.joins != 1) {
			t.Errorf("refused=%v: operations done at %v with %v, %d joins; want done at %v", fail, done, errs, tm.joins, want)
		}
	}
}

func TestVoteReflectsUpdates(t *testing.T) {
	f := newFixture()
	f.run(t, func() {
		reader := top(1)
		writer := top(2)
		f.srv.Write(top(3), nil, "a", []byte("seed")) //nolint:errcheck
		f.srv.CommitFamily(top(3).Family)
		f.srv.Read(reader, nil, "a")              //nolint:errcheck
		f.srv.Write(writer, nil, "b", []byte("")) //nolint:errcheck
		if v := f.srv.Vote(reader.Family); v != wire.VoteReadOnly {
			t.Errorf("reader vote = %v, want READ-ONLY", v)
		}
		if v := f.srv.Vote(writer.Family); v != wire.VoteYes {
			t.Errorf("writer vote = %v, want YES", v)
		}
	})
}

func TestUpdatesAreLoggedWithOldAndNewValues(t *testing.T) {
	f := newFixture()
	f.run(t, func() {
		tx := top(1)
		f.srv.Write(tx, nil, "a", []byte("v1")) //nolint:errcheck
		f.srv.Write(tx, nil, "a", []byte("v2")) //nolint:errcheck
		f.log.Force(math.MaxUint64)             //nolint:errcheck
		recs, _ := f.log.Records()
		if len(recs) != 2 {
			t.Fatalf("%d update records, want 2", len(recs))
		}
		if recs[0].Old != nil || string(recs[0].New) != "v1" {
			t.Errorf("first update old/new = %q/%q", recs[0].Old, recs[0].New)
		}
		if string(recs[1].Old) != "v1" || string(recs[1].New) != "v2" {
			t.Errorf("second update old/new = %q/%q", recs[1].Old, recs[1].New)
		}
		if recs[0].Server != "srv" || recs[0].Key != "a" {
			t.Errorf("record names %q/%q", recs[0].Server, recs[0].Key)
		}
	})
}

func TestAbortRestoresPriorValues(t *testing.T) {
	f := newFixture()
	f.run(t, func() {
		setup := top(1)
		f.srv.Write(setup, nil, "a", []byte("old")) //nolint:errcheck
		f.srv.CommitFamily(setup.Family)

		tx := top(2)
		f.srv.Write(tx, nil, "a", []byte("new")) //nolint:errcheck
		f.srv.Write(tx, nil, "b", []byte("ins")) //nolint:errcheck
		f.srv.AbortFamily(tx.Family)

		if v, _ := f.srv.Peek("a"); string(v) != "old" {
			t.Errorf("a = %q after abort, want \"old\"", v)
		}
		if _, ok := f.srv.Peek("b"); ok {
			t.Error("inserted key survived abort")
		}
	})
}

func TestAbortUndoesInReverseOrder(t *testing.T) {
	f := newFixture()
	f.run(t, func() {
		tx := top(1)
		// Three writes to the same key; undo must restore the
		// original absence.
		for _, v := range []string{"1", "2", "3"} {
			f.srv.Write(tx, nil, "k", []byte(v)) //nolint:errcheck
		}
		f.srv.AbortFamily(tx.Family)
		if _, ok := f.srv.Peek("k"); ok {
			t.Error("key exists after aborting the transaction that created it")
		}
	})
}

// TestFailedWriteChangesNothing: a write whose update record the log
// refuses leaves the table as it was, for an overwrite and an insert.
func TestFailedWriteChangesNothing(t *testing.T) {
	f := newFixture()
	f.run(t, func() {
		f.srv.Install(image(map[string]string{"a": "1"}))
		f.log.Close()
		for _, key := range []string{"a", "b"} {
			if err := f.srv.Write(top(1), nil, key, []byte("2")); !errors.Is(err, wal.ErrClosed) {
				t.Errorf("Write(%s) on a closed log = %v, want wal.ErrClosed", key, err)
			}
		}
		if v, ok := f.srv.Peek("a"); !ok || string(v) != "1" {
			t.Errorf("a = %q, %v after a refused overwrite; want \"1\"", v, ok)
		}
		if _, ok := f.srv.Peek("b"); ok {
			t.Error("a refused insert left its key behind")
		}
		f.srv.AbortFamily(top(1).Family)
		if v, _ := f.srv.Peek("a"); string(v) != "1" {
			t.Errorf("a = %q after the family's abort, want \"1\"", v)
		}
	})
}

func TestCommitReleasesLocks(t *testing.T) {
	f := newFixture()
	f.run(t, func() {
		tx := top(1)
		f.srv.Write(tx, nil, "a", []byte("1")) //nolint:errcheck
		f.srv.CommitFamily(tx.Family)
		// Another family can now take the lock immediately.
		if err := f.srv.Write(top(2), nil, "a", []byte("2")); err != nil {
			t.Fatalf("lock not released by commit: %v", err)
		}
		if f.srv.Locks().HoldsAny(tx) {
			t.Error("committed transaction still holds locks")
		}
	})
}

func TestLockTimeoutSurfacesAsError(t *testing.T) {
	f := newFixture()
	f.run(t, func() {
		f.srv.Write(top(1), nil, "a", []byte("1")) //nolint:errcheck
		err := f.srv.Write(top(2), nil, "a", []byte("2"))
		if !errors.Is(err, ErrLockTimeout) {
			t.Fatalf("conflicting write = %v, want ErrLockTimeout", err)
		}
	})
}

func TestChildCommitMergesUndoAndLocks(t *testing.T) {
	f := newFixture()
	f.run(t, func() {
		parent := top(1)
		child := tid.TID{Family: parent.Family, Seq: tid.MakeSeq(1, 1)}
		f.srv.Write(parent, nil, "p", []byte("1"))              //nolint:errcheck
		f.srv.Write(child, []tid.TID{parent}, "c", []byte("2")) //nolint:errcheck
		f.srv.CommitChild(child)
		// Aborting the parent must now undo the child's write too.
		f.srv.AbortFamily(parent.Family)
		if _, ok := f.srv.Peek("c"); ok {
			t.Error("child write survived parent abort after inheritance")
		}
	})
}

func TestChildAbortLeavesParentUpdates(t *testing.T) {
	f := newFixture()
	f.run(t, func() {
		parent := top(1)
		child := tid.TID{Family: parent.Family, Seq: tid.MakeSeq(1, 1)}
		f.srv.Write(parent, nil, "p", []byte("1"))              //nolint:errcheck
		f.srv.Write(child, []tid.TID{parent}, "c", []byte("2")) //nolint:errcheck
		f.srv.AbortChild(child)
		if _, ok := f.srv.Peek("c"); ok {
			t.Error("child write visible after child abort")
		}
		f.srv.CommitFamily(parent.Family)
		if v, _ := f.srv.Peek("p"); string(v) != "1" {
			t.Errorf("parent write lost: p = %q", v)
		}
	})
}

func TestChildAbortCascadesToDescendants(t *testing.T) {
	f := newFixture()
	f.run(t, func() {
		parent := top(1)
		child := tid.TID{Family: parent.Family, Seq: tid.MakeSeq(1, 1)}
		grand := tid.TID{Family: parent.Family, Seq: tid.MakeSeq(1, 2)}
		f.srv.Write(parent, nil, "p", []byte("1"))                     //nolint:errcheck
		f.srv.Write(child, []tid.TID{parent}, "c", []byte("2"))        //nolint:errcheck
		f.srv.Write(grand, []tid.TID{parent, child}, "g", []byte("3")) //nolint:errcheck
		f.srv.AbortChild(child)
		if _, ok := f.srv.Peek("c"); ok {
			t.Error("child write survived")
		}
		if _, ok := f.srv.Peek("g"); ok {
			t.Error("grandchild write survived child abort")
		}
	})
}

// TestChildAbortReleasesInJoinOrder: aborting a child releases its
// own locks and then its grandchild's, in the order the two joined,
// with the lock-drop cost charged between releases. A blocked waiter
// on each key sees that order as its grant time, on every seed.
func TestChildAbortReleasesInJoinOrder(t *testing.T) {
	const drop = time.Millisecond
	for seed := int64(1); seed <= 100; seed++ {
		k := sim.New(seed)
		log := wal.Open(k, wal.NewMemStore(), wal.Config{})
		p := params.Params{DropLock: drop}
		srv := New(k, "srv", &fakeJoiner{}, log, Config{LockTimeout: time.Second, Params: p})
		parent := top(1)
		child := tid.TID{Family: parent.Family, Seq: tid.MakeSeq(1, 1)}
		grand := tid.TID{Family: parent.Family, Seq: tid.MakeSeq(1, 2)}
		var granted [2]time.Duration
		k.Go("test", func() {
			srv.Write(child, []tid.TID{parent}, "c", []byte("1"))        //nolint:errcheck
			srv.Write(grand, []tid.TID{parent, child}, "g", []byte("2")) //nolint:errcheck
			for i, key := range []string{"c", "g"} {
				k.Go("waiter "+key, func() {
					if err := srv.Write(top(uint32(2+i)), nil, key, []byte("w")); err != nil {
						t.Errorf("seed %d: waiter on %s: %v", seed, key, err)
					}
					granted[i] = time.Duration(k.Now())
				})
			}
			k.Sleep(10 * time.Millisecond)
			srv.AbortChild(child)
			k.Sleep(10 * time.Millisecond)
			k.Stop()
		})
		k.RunUntil(time.Minute)
		if want := [2]time.Duration{10*time.Millisecond + drop, 10*time.Millisecond + 2*drop}; granted != want {
			t.Errorf("seed %d: waiters on the child's and the grandchild's keys granted at %v, want %v", seed, granted, want)
		}
	}
}

func TestInstallReplacesState(t *testing.T) {
	f := newFixture()
	f.run(t, func() {
		f.srv.Write(top(1), nil, "junk", []byte("x")) //nolint:errcheck
		f.srv.Install(image(map[string]string{"a": "1", "b": "2"}))
		if _, ok := f.srv.Peek("junk"); ok {
			t.Error("pre-install state survived Install")
		}
		if v, _ := f.srv.Peek("a"); string(v) != "1" {
			t.Errorf("a = %q after Install", v)
		}
	})
}

// TestInstallAllocs: Install takes the recovered segment over, and
// copies nothing.
func TestInstallAllocs(t *testing.T) {
	f := newFixture()
	seg := image(map[string]string{"a": "1", "b": "2"})
	var allocs float64
	f.run(t, func() {
		allocs = testing.AllocsPerRun(100, func() { f.srv.Install(seg) })
		if v, _ := f.srv.Peek("b"); string(v) != "2" {
			t.Errorf("b = %q after Install, want \"2\"", v)
		}
	})
	if allocs != 0 {
		t.Errorf("Install allocates %v times, want 0", allocs)
	}
}

func TestReacquireRestoresInDoubtState(t *testing.T) {
	f := newFixture()
	f.run(t, func() {
		tx := top(1)
		f.srv.Reacquire(tx, []*wal.Record{
			{Type: wal.RecUpdate, TID: tx, Server: "srv", Key: "a", Old: []byte("old"), New: []byte("new")},
			{Type: wal.RecUpdate, TID: tx, Server: "srv", Key: "b", Old: nil, New: []byte("ins")},
		})
		// The in-doubt value is applied and locked.
		if v, _ := f.srv.Peek("a"); string(v) != "new" {
			t.Errorf("a = %q, want in-doubt \"new\"", v)
		}
		if err := f.srv.Write(top(2), nil, "a", []byte("x")); !errors.Is(err, ErrLockTimeout) {
			t.Errorf("in-doubt key not locked: %v", err)
		}
		// The vote reflects the in-doubt updates.
		if v := f.srv.Vote(tx.Family); v != wire.VoteYes {
			t.Errorf("in-doubt vote = %v, want YES", v)
		}
		// Abort resolution restores the old values.
		f.srv.AbortFamily(tx.Family)
		if v, _ := f.srv.Peek("a"); string(v) != "old" {
			t.Errorf("a = %q after in-doubt abort, want \"old\"", v)
		}
		if _, ok := f.srv.Peek("b"); ok {
			t.Error("in-doubt insert survived abort")
		}
	})
}

// TestReacquireRedoesCompensation: an in-doubt family whose child
// aborted comes back from its records in log order, the child's
// compensation records included — a nil New removes the key — and an
// abort then undoes them all backwards.
func TestReacquireRedoesCompensation(t *testing.T) {
	f := newFixture()
	f.run(t, func() {
		tx := top(1)
		child := tid.TID{Family: tx.Family, Seq: tid.MakeSeq(1, 1)}
		f.srv.Reacquire(tx, []*wal.Record{
			{Type: wal.RecUpdate, TID: tx, Server: "srv", Key: "a", New: []byte("p")},
			{Type: wal.RecUpdate, TID: child, Server: "srv", Key: "a", Old: []byte("p"), New: []byte("c")},
			{Type: wal.RecUpdate, TID: child, Server: "srv", Key: "b", New: []byte("c")},
			{Type: wal.RecUpdate, TID: child, Server: "srv", Key: "b", Old: []byte("c")},
			{Type: wal.RecUpdate, TID: child, Server: "srv", Key: "a", Old: []byte("c"), New: []byte("p")},
		})
		if v, _ := f.srv.Peek("a"); string(v) != "p" {
			t.Errorf("a = %q after reacquire, want the parent's \"p\"", v)
		}
		if v, ok := f.srv.Peek("b"); ok {
			t.Errorf("b = %q after reacquire, want absent", v)
		}
		f.srv.AbortFamily(tx.Family)
		for _, key := range []string{"a", "b"} {
			if v, ok := f.srv.Peek(key); ok {
				t.Errorf("%s = %q after in-doubt abort, want absent", key, v)
			}
		}
	})
}

func TestReacquireThenCommit(t *testing.T) {
	f := newFixture()
	f.run(t, func() {
		tx := top(1)
		f.srv.Reacquire(tx, []*wal.Record{{Type: wal.RecUpdate, TID: tx, Server: "srv", Key: "a", New: []byte("v")}})
		f.srv.CommitFamily(tx.Family)
		if v, _ := f.srv.Peek("a"); string(v) != "v" {
			t.Errorf("a = %q after in-doubt commit, want \"v\"", v)
		}
		if err := f.srv.Write(top(2), nil, "a", []byte("x")); err != nil {
			t.Errorf("lock not released after in-doubt commit: %v", err)
		}
	})
}

func TestSnapshotAndOpCounts(t *testing.T) {
	f := newFixture()
	f.run(t, func() {
		tx := top(1)
		f.srv.Write(tx, nil, "a", []byte("1")) //nolint:errcheck
		f.srv.Read(tx, nil, "a")               //nolint:errcheck
		f.srv.CommitFamily(tx.Family)
		if v, ok := f.srv.Peek("a"); !ok || string(v) != "1" {
			t.Errorf("Peek(a) = %q, %v; want 1", v, ok)
		}
		r, w := f.srv.OpCounts()
		if r != 1 || w != 1 {
			t.Errorf("OpCounts = %d reads, %d writes; want 1/1", r, w)
		}
	})
}

// TestReadCopiesDoNotAlias pins the two copies a value takes: Write
// copies the caller's buffer in, and Read and Peek copy the stored
// value out, so no caller's slice is the server's storage.
func TestReadCopiesDoNotAlias(t *testing.T) {
	f := newFixture()
	f.run(t, func() {
		tx := top(1)
		buf := []byte("abc")
		f.srv.Write(tx, nil, "a", buf) //nolint:errcheck
		buf[0] = 'W'
		if v, _ := f.srv.Peek("a"); string(v) != "abc" {
			t.Errorf("a = %q after the writer changed its buffer, want \"abc\"", v)
		}
		got, _ := f.srv.Read(tx, nil, "a")
		got[0] = 'X'
		if again, _ := f.srv.Read(tx, nil, "a"); string(again) != "abc" {
			t.Errorf("a = %q after a reader changed Read's slice: Read returned aliased storage", again)
		}
		peeked, _ := f.srv.Peek("a")
		peeked[0] = 'Y'
		if again, _ := f.srv.Peek("a"); string(again) != "abc" {
			t.Errorf("a = %q after a reader changed Peek's slice: Peek returned aliased storage", again)
		}
	})
}

// TestInDoubtAbortRestoresEmptyValue is the regression test for an
// in-doubt overwrite of an empty value: the log used to encode the
// present empty Old like an absent one, so the restarted server undid
// the overwrite as a delete. It runs the whole path: Write logs the
// update, the log's codec round-trips it, recman finds the family in
// doubt, and a fresh server reacquires and aborts it.
func TestInDoubtAbortRestoresEmptyValue(t *testing.T) {
	f := newFixture()
	f.run(t, func() {
		f.srv.Install(image(map[string]string{"k": ""}))
		tx := top(1)
		if err := f.srv.Write(tx, nil, "k", []byte("x")); err != nil {
			t.Error(err)
			return
		}
		lsn, err := f.log.Append(&wal.Record{Type: wal.RecPrepare, TID: tx, Coordinator: 2})
		if err == nil {
			err = f.log.Force(lsn)
		}
		if err != nil {
			t.Error(err)
			return
		}
		recs, err := f.log.Records()
		if err != nil {
			t.Error(err)
			return
		}
		a := recman.Analyze(1, nil, recs)
		if len(a.InDoubt) != 1 {
			t.Errorf("in doubt: %v, want the one prepared family", a.InDoubt)
			return
		}
		re := New(f.k, "srv", f.tm, f.log, Config{LockTimeout: 100 * time.Millisecond})
		re.Install(image(map[string]string{"k": ""}))
		re.Reacquire(tx, a.InDoubt[0].Updates["srv"])
		if v, _ := re.Peek("k"); string(v) != "x" {
			t.Errorf("k = %q in doubt, want \"x\"", v)
		}
		re.AbortFamily(tx.Family)
		if v, ok := re.Peek("k"); !ok || len(v) != 0 {
			t.Errorf("k = %q, %v after the in-doubt abort; want present and empty", v, ok)
		}
	})
}

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// acceptAll is a Joiner that keeps nothing, so that a long fill
// retains no per-transaction state outside the server.
type acceptAll struct{}

func (acceptAll) Join(t tid.TID, anc []tid.TID, p Participant) error { return nil }

// discard is a log device that keeps nothing: the heap a fill leaves
// behind is the server's.
type discard struct{}

func (discard) Append([]byte) error       { return nil }
func (discard) Blocks() ([][]byte, error) { return nil, nil }
func (discard) Truncate(int) error        { return nil }
func (discard) DropTail(int) error        { return nil }

// commitEach runs n families on srv, one write each, write(i) giving
// the i'th family's key and value; the families abort(i) names abort,
// and the others commit. The log is forced every 100 families.
func commitEach(t *testing.T, k *sim.Kernel, log *wal.Log, srv *Server, n int, write func(i int) (string, []byte), abort func(i int) bool) {
	t.Helper()
	k.Go("fill", func() {
		defer k.Stop()
		for i := 0; i < n; i++ {
			tx := top(uint32(i + 1))
			key, val := write(i)
			if err := srv.Write(tx, nil, key, val); err != nil {
				t.Error(err)
				return
			}
			if abort(i) {
				srv.AbortFamily(tx.Family)
			} else {
				srv.CommitFamily(tx.Family)
			}
			if i%100 == 99 {
				log.Force(math.MaxUint64) //nolint:errcheck // discard never fails
			}
		}
		log.Force(math.MaxUint64) //nolint:errcheck // discard never fails
	})
	k.RunUntil(time.Hour)
}

func never(int) bool { return false }

// objectKey and objectValue are the compactness tests' objects: a
// 10-byte key and a 64-byte value, numbered.
func objectKey(i int) string { return fmt.Sprintf("key/%06d", i) }

func objectValue(i int) []byte {
	v := make([]byte, 64)
	binary.BigEndian.PutUint64(v, uint64(i))
	return v
}

// TestObjectTableIsCompact pins what the object table costs per
// committed object, at 10,000 objects and at 100,000 (a slot array
// just doubled, at 38 % load), against two built-in maps holding the
// same keys and 64-byte values. The table keeps an object as its entry
// in a byte arena, its exact length, and one 8-byte slot word:
//   - against a map[string][]byte, whose slot holds a key and a
//     24-byte slice header, it must save at least 8 B per object;
//   - against a map[string]string, the built-in layout of the same
//     strings, it must save at least 8 B per object too, and at
//     least 25 B: a heap object and a 16-byte string per entry
//     measured 9.8–10.2 B at 100,000, the arena 34.2–34.6 B (45–51 B
//     at 10,000 objects), over both map layouts.
//
// The table is filled through Write and CommitFamily, one transaction
// per object.
func TestObjectTableIsCompact(t *testing.T) {
	for _, n := range []int{10_000, 100_000} {
		perEntry := func(fill func()) float64 {
			before := liveHeap()
			fill()
			return (float64(liveHeap()) - float64(before)) / float64(n)
		}

		k := sim.New(1)
		log := wal.Open(k, discard{}, wal.Config{})
		srv := New(k, "srv", acceptAll{}, log, Config{})
		table := perEntry(func() {
			commitEach(t, k, log, srv, n, func(i int) (string, []byte) { return objectKey(i), objectValue(i) }, never)
		})
		if _, w := srv.OpCounts(); w != n {
			t.Fatalf("%d writes, want %d", w, n)
		}
		var sliceMap map[string][]byte
		sliced := perEntry(func() {
			sliceMap = make(map[string][]byte)
			for i := 0; i < n; i++ {
				sliceMap[objectKey(i)] = objectValue(i)
			}
		})
		var stringMap map[string]string
		stringed := perEntry(func() {
			stringMap = make(map[string]string)
			for i := 0; i < n; i++ {
				stringMap[objectKey(i)] = string(objectValue(i))
			}
		})
		runtime.KeepAlive(sliceMap)
		runtime.KeepAlive(stringMap)
		runtime.KeepAlive(srv)
		if table > sliced-8 {
			t.Errorf("%d objects: the object table retains %.1f B per object, a map[string][]byte %.1f B: want at least 8 B less", n, table, sliced)
		}
		if table > stringed-8 {
			t.Errorf("%d objects: the object table retains %.1f B per object, a map[string]string %.1f B: want at least 8 B less", n, table, stringed)
		}
		if table > stringed-25 {
			t.Errorf("%d objects: the object table retains %.1f B per object, a map[string]string %.1f B: want at least 25 B less", n, table, stringed)
		}
		t.Logf("%d objects, B per object: table %.1f, map[string]string %.1f, map[string][]byte %.1f", n, table, stringed, sliced)
	}
}

// TestOverwriteChurnStaysCompact overwrites each of 10,000 objects ten
// times, a family per write, every tenth family aborted, and requires
// the server to retain no more than a fresh fill of the same objects
// plus the table's bound on what churn leaves in its arena: dead bytes
// up to half the live ones plus a chunk, and one chunk's free tail.
// Every object then reads its last committed value.
func TestOverwriteChurnStaysCompact(t *testing.T) {
	const n, rounds = 10_000, 10
	retained := func(writes int, write func(i int) (string, []byte), abort func(i int) bool) (*Server, uint64) {
		before := liveHeap()
		k := sim.New(1)
		log := wal.Open(k, discard{}, wal.Config{})
		srv := New(k, "srv", acceptAll{}, log, Config{})
		commitEach(t, k, log, srv, writes, write, abort)
		return srv, liveHeap() - before
	}
	_, freshHeap := retained(n, func(i int) (string, []byte) { return objectKey(i), objectValue(i) }, never)

	// Write i is object i%n's round i/n; round 0 is the first fill.
	want := make([]int, n)
	churned, churnedHeap := retained((rounds+1)*n, func(i int) (string, []byte) { return objectKey(i % n), objectValue(i) },
		func(i int) bool {
			if i%10 == 9 && i >= n {
				return true
			}
			want[i%n] = i
			return false
		})
	for i := range want {
		if v, ok := churned.Peek(objectKey(i)); !ok || !bytes.Equal(v, objectValue(want[i])) {
			t.Fatalf("%s = %x, %v after the churn; want %x", objectKey(i), v, ok, objectValue(want[i]))
		}
	}
	// An object's entry is its two length bytes, its key and its value.
	live := n * (2 + len(objectKey(0)) + len(objectValue(0)))
	bound := uint64(live/2 + 2*chunkSize)
	t.Logf("%d objects: %d B retained fresh, %d B after %d rounds of overwrites; bound %d B more", n, freshHeap, churnedHeap, rounds, bound)
	if churnedHeap > freshHeap+bound {
		t.Errorf("%d objects overwritten %d times retain %d B, a fresh fill %d B: want at most %d B more", n, rounds, churnedHeap, freshHeap, bound)
	}
}

// TestFlatTransactionAllocs pins what a flat transaction's one write
// and commit allocate at the server, on a server that has run before:
// the log record and its copies of the old and new value (the old one
// is the undo entry's too), the family's record, its member and undo
// lists, and the lock. The value itself goes into the table's arena.
func TestFlatTransactionAllocs(t *testing.T) {
	k := sim.New(1)
	srv := New(k, "srv", acceptAll{}, wal.Open(k, discard{}, wal.Config{}), Config{})
	n := uint32(0)
	cycle := func() {
		n++
		tx := top(n)
		if err := srv.Write(tx, nil, "a", []byte("value")); err != nil {
			t.Error(err)
		}
		srv.CommitFamily(tx.Family)
	}
	var allocs float64
	k.Go("test", func() {
		cycle()
		allocs = testing.AllocsPerRun(100, cycle)
		k.Stop()
	})
	k.RunUntil(time.Minute)
	t.Logf("a flat Write + CommitFamily allocates %v times", allocs)
	if allocs > 8 {
		t.Errorf("a flat Write + CommitFamily allocates %v times, want ≤ 8", allocs)
	}
}

// TestRestartThroughTheTable runs what the object table holds across
// a restart, on the simulated log and on the real runtime's file log.
// A committed empty value, a 200-byte key and a value longer than one
// of the table's chunks come back through Install. A family in doubt
// at the restart, which wrote one key twice, overwrote the long value
// with another and inserted a key, is reacquired and then aborted: the
// overwritten keys go back to their values from before the family,
// and the inserted key is removed. A key first inserted by a family
// aborted before the restart is absent on both sides of it.
func TestRestartThroughTheTable(t *testing.T) {
	long := strings.Repeat("k", 200)
	big, bigger := strings.Repeat("b", chunkSize+1), strings.Repeat("B", chunkSize+100)
	want := func(t *testing.T, srv *Server, when string, values map[string]string, absent ...string) {
		t.Helper()
		for _, k := range det.SortedKeys(values) {
			if v, ok := srv.Peek(k); !ok || string(v) != values[k] {
				t.Errorf("%s: %.12q = %q, %v; want %q", when, k, v, ok, values[k])
			}
		}
		for _, k := range absent {
			if v, ok := srv.Peek(k); ok {
				t.Errorf("%s: %q = %q, want absent", when, k, v)
			}
		}
	}
	// scenario writes and logs the three families on a server over
	// log, then restarts it over the log reopen returns.
	scenario := func(t *testing.T, r rt.Runtime, log *wal.Log, reopen func() *wal.Log) {
		srv := New(r, "srv", acceptAll{}, log, Config{})
		var errs error
		step := func(err error) { errs = errors.Join(errs, err) }
		logged := func(_ uint64, err error) { step(err) }
		committed, indoubt, aborted := top(1), top(2), top(3)
		step(srv.Write(committed, nil, "empty", nil))
		step(srv.Write(committed, nil, long, []byte("long")))
		step(srv.Write(committed, nil, "twice", []byte("before")))
		step(srv.Write(committed, nil, "big", []byte(big)))
		logged(log.Append(&wal.Record{Type: wal.RecCommit, TID: committed}))
		srv.CommitFamily(committed.Family)
		step(srv.Write(indoubt, nil, "twice", []byte("one")))
		step(srv.Write(indoubt, nil, "twice", []byte("two")))
		step(srv.Write(indoubt, nil, "inserted", []byte("new")))
		step(srv.Write(indoubt, nil, "big", []byte(bigger)))
		logged(log.Append(&wal.Record{Type: wal.RecPrepare, TID: indoubt, Coordinator: 2}))
		step(srv.Write(aborted, nil, "gone", []byte("x")))
		srv.AbortFamily(aborted.Family)
		step(log.Force(math.MaxUint64))
		if errs != nil {
			t.Error(errs)
			return
		}
		want(t, srv, "before the restart", map[string]string{"empty": "", long: "long", "twice": "two", "inserted": "new", "big": bigger}, "gone")
		log.Close()

		log = reopen()
		defer log.Close()
		recs, err := log.Records()
		a := recman.Analyze(1, nil, recs)
		if err != nil || len(a.InDoubt) != 1 {
			t.Errorf("in doubt: %v, %v; want the one prepared family", a.InDoubt, err)
			return
		}
		re := New(r, "srv", acceptAll{}, log, Config{})
		re.Install(a.Data["srv"])
		re.Reacquire(indoubt, a.InDoubt[0].Updates["srv"])
		want(t, re, "in doubt after the restart", map[string]string{"empty": "", long: "long", "twice": "two", "inserted": "new", "big": bigger}, "gone")
		re.AbortFamily(indoubt.Family)
		want(t, re, "after the in-doubt abort", map[string]string{"empty": "", long: "long", "twice": "before", "big": big}, "inserted", "gone")
	}

	t.Run("sim", func(t *testing.T) {
		k := sim.New(1)
		store := wal.NewMemStore()
		k.Go("test", func() {
			defer k.Stop()
			scenario(t, k, wal.Open(k, store, wal.Config{}), func() *wal.Log { return wal.Open(k, store, wal.Config{}) })
		})
		k.RunUntil(time.Minute)
	})
	t.Run("file", func(t *testing.T) {
		r := rt.Real()
		path := filepath.Join(t.TempDir(), "wal")
		var store *wal.FileStore
		open := func() *wal.Log {
			var err error
			if store, err = wal.OpenFileStore(path); err != nil {
				t.Fatal(err)
			}
			return wal.Open(r, store, wal.Config{})
		}
		log := open()
		first := store
		scenario(t, r, log, func() *wal.Log {
			first.Close()
			return open()
		})
		store.Close()
	})
}
