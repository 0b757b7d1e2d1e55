package server

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"

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

func (j *fakeJoiner) Join(t, parent tid.TID, p Participant) error {
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

func TestWriteThenReadSameTransaction(t *testing.T) {
	f := newFixture()
	f.run(t, func() {
		tx := top(1)
		if err := f.srv.Write(tx, tid.TID{}, "a", []byte("v")); err != nil {
			t.Fatalf("Write: %v", err)
		}
		got, err := f.srv.Read(tx, tid.TID{}, "a")
		if err != nil || !bytes.Equal(got, []byte("v")) {
			t.Fatalf("Read = %q, %v", got, err)
		}
	})
}

func TestReadMissingKey(t *testing.T) {
	f := newFixture()
	f.run(t, func() {
		_, err := f.srv.Read(top(1), tid.TID{}, "nope")
		if !errors.Is(err, ErrNoSuchKey) {
			t.Fatalf("Read(missing) = %v, want ErrNoSuchKey", err)
		}
	})
}

func TestFirstOperationJoinsExactlyOnce(t *testing.T) {
	f := newFixture()
	f.run(t, func() {
		tx := top(1)
		f.srv.Write(tx, tid.TID{}, "a", []byte("1")) //nolint:errcheck
		f.srv.Write(tx, tid.TID{}, "b", []byte("2")) //nolint:errcheck
		f.srv.Read(tx, tid.TID{}, "a")               //nolint:errcheck
		if len(f.tm.joins) != 1 {
			t.Fatalf("joined %d times, want 1", len(f.tm.joins))
		}
	})
}

func TestJoinRefusalFailsOperation(t *testing.T) {
	f := newFixture()
	f.tm.fail = true
	f.run(t, func() {
		if err := f.srv.Write(top(1), tid.TID{}, "a", []byte("1")); err == nil {
			t.Fatal("Write succeeded though join was refused")
		}
	})
}

func TestVoteReflectsUpdates(t *testing.T) {
	f := newFixture()
	f.run(t, func() {
		reader := top(1)
		writer := top(2)
		f.srv.Write(top(3), tid.TID{}, "a", []byte("seed")) //nolint:errcheck
		f.srv.CommitFamily(top(3).Family)
		f.srv.Read(reader, tid.TID{}, "a")              //nolint:errcheck
		f.srv.Write(writer, tid.TID{}, "b", []byte("")) //nolint:errcheck
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
		f.srv.Write(tx, tid.TID{}, "a", []byte("v1")) //nolint:errcheck
		f.srv.Write(tx, tid.TID{}, "a", []byte("v2")) //nolint:errcheck
		f.log.Force(math.MaxUint64)                   //nolint:errcheck
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
		f.srv.Write(setup, tid.TID{}, "a", []byte("old")) //nolint:errcheck
		f.srv.CommitFamily(setup.Family)

		tx := top(2)
		f.srv.Write(tx, tid.TID{}, "a", []byte("new")) //nolint:errcheck
		f.srv.Write(tx, tid.TID{}, "b", []byte("ins")) //nolint:errcheck
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
			f.srv.Write(tx, tid.TID{}, "k", []byte(v)) //nolint:errcheck
		}
		f.srv.AbortFamily(tx.Family)
		if _, ok := f.srv.Peek("k"); ok {
			t.Error("key exists after aborting the transaction that created it")
		}
	})
}

func TestCommitReleasesLocks(t *testing.T) {
	f := newFixture()
	f.run(t, func() {
		tx := top(1)
		f.srv.Write(tx, tid.TID{}, "a", []byte("1")) //nolint:errcheck
		f.srv.CommitFamily(tx.Family)
		// Another family can now take the lock immediately.
		if err := f.srv.Write(top(2), tid.TID{}, "a", []byte("2")); err != nil {
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
		f.srv.Write(top(1), tid.TID{}, "a", []byte("1")) //nolint:errcheck
		err := f.srv.Write(top(2), tid.TID{}, "a", []byte("2"))
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
		f.srv.Write(parent, tid.TID{}, "p", []byte("1")) //nolint:errcheck
		f.srv.Write(child, parent, "c", []byte("2"))     //nolint:errcheck
		f.srv.CommitChild(child, parent)
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
		f.srv.Write(parent, tid.TID{}, "p", []byte("1")) //nolint:errcheck
		f.srv.Write(child, parent, "c", []byte("2"))     //nolint:errcheck
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
		f.srv.Write(parent, tid.TID{}, "p", []byte("1")) //nolint:errcheck
		f.srv.Write(child, parent, "c", []byte("2"))     //nolint:errcheck
		f.srv.Write(grand, child, "g", []byte("3"))      //nolint:errcheck
		f.srv.AbortChild(child)
		if _, ok := f.srv.Peek("c"); ok {
			t.Error("child write survived")
		}
		if _, ok := f.srv.Peek("g"); ok {
			t.Error("grandchild write survived child abort")
		}
	})
}

func TestInstallReplacesState(t *testing.T) {
	f := newFixture()
	f.run(t, func() {
		f.srv.Write(top(1), tid.TID{}, "junk", []byte("x")) //nolint:errcheck
		f.srv.Install(map[string][]byte{"a": []byte("1"), "b": []byte("2")})
		if _, ok := f.srv.Peek("junk"); ok {
			t.Error("pre-install state survived Install")
		}
		if v, _ := f.srv.Peek("a"); string(v) != "1" {
			t.Errorf("a = %q after Install", v)
		}
	})
}

func TestReacquireRestoresInDoubtState(t *testing.T) {
	f := newFixture()
	f.run(t, func() {
		tx := top(1)
		f.srv.Reacquire(tx, []RecoveredUpdate{
			{Key: "a", Old: []byte("old"), New: []byte("new")},
			{Key: "b", Old: nil, New: []byte("ins")},
		})
		// The in-doubt value is applied and locked.
		if v, _ := f.srv.Peek("a"); string(v) != "new" {
			t.Errorf("a = %q, want in-doubt \"new\"", v)
		}
		if err := f.srv.Write(top(2), tid.TID{}, "a", []byte("x")); !errors.Is(err, ErrLockTimeout) {
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

func TestReacquireThenCommit(t *testing.T) {
	f := newFixture()
	f.run(t, func() {
		tx := top(1)
		f.srv.Reacquire(tx, []RecoveredUpdate{{Key: "a", New: []byte("v")}})
		f.srv.CommitFamily(tx.Family)
		if v, _ := f.srv.Peek("a"); string(v) != "v" {
			t.Errorf("a = %q after in-doubt commit, want \"v\"", v)
		}
		if err := f.srv.Write(top(2), tid.TID{}, "a", []byte("x")); err != nil {
			t.Errorf("lock not released after in-doubt commit: %v", err)
		}
	})
}

func TestSnapshotAndOpCounts(t *testing.T) {
	f := newFixture()
	f.run(t, func() {
		tx := top(1)
		f.srv.Write(tx, tid.TID{}, "a", []byte("1")) //nolint:errcheck
		f.srv.Read(tx, tid.TID{}, "a")               //nolint:errcheck
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

func TestReadCopiesDoNotAlias(t *testing.T) {
	f := newFixture()
	f.run(t, func() {
		tx := top(1)
		f.srv.Write(tx, tid.TID{}, "a", []byte("abc")) //nolint:errcheck
		got, _ := f.srv.Read(tx, tid.TID{}, "a")
		got[0] = 'X'
		again, _ := f.srv.Read(tx, tid.TID{}, "a")
		if string(again) != "abc" {
			t.Error("Read returned aliased storage")
		}
	})
}
