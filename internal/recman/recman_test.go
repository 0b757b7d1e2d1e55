package recman

import (
	"testing"

	"camelot/internal/tid"
	"camelot/internal/wal"
	"camelot/internal/wire"
)

func top(n uint32) tid.TID       { return tid.Top(tid.MakeFamily(1, n)) }
func remoteTop(n uint32) tid.TID { return tid.Top(tid.MakeFamily(9, n)) }
func upd(t tid.TID, key, old, new_ string) *wal.Record {
	r := &wal.Record{Type: wal.RecUpdate, TID: t, Server: "srv", Key: key, New: []byte(new_)}
	if old != "" {
		r.Old = []byte(old)
	}
	return r
}

func TestCommittedUpdatesAreRedone(t *testing.T) {
	recs := []*wal.Record{
		upd(top(1), "a", "", "1"),
		upd(top(1), "b", "", "2"),
		{Type: wal.RecCommit, TID: top(1)},
	}
	a := Analyze(1, nil, recs)
	if string(a.Data["srv"]["a"]) != "1" || string(a.Data["srv"]["b"]) != "2" {
		t.Fatalf("Data = %v", a.Data)
	}
	if len(a.InDoubt) != 0 {
		t.Fatalf("InDoubt = %v, want none", a.InDoubt)
	}
}

func TestUncommittedUpdatesArePresumedAborted(t *testing.T) {
	recs := []*wal.Record{
		upd(top(1), "a", "", "1"), // no outcome record at all
	}
	a := Analyze(1, nil, recs)
	if len(a.Data["srv"]) != 0 {
		t.Fatalf("loser's update redone: %v", a.Data)
	}
}

func TestExplicitAbortDiscardsUpdates(t *testing.T) {
	recs := []*wal.Record{
		upd(top(1), "a", "", "1"),
		{Type: wal.RecAbort, TID: top(1)},
	}
	a := Analyze(1, nil, recs)
	if len(a.Data["srv"]) != 0 {
		t.Fatalf("aborted update redone: %v", a.Data)
	}
	if got := a.Outcomes.Get(top(1).Family); got != wire.OutcomeAbort {
		t.Errorf("outcome = %v, want abort", got)
	}
}

func TestLastWriterWinsInLSNOrder(t *testing.T) {
	recs := []*wal.Record{
		upd(top(1), "a", "", "1"),
		{Type: wal.RecCommit, TID: top(1)},
		upd(top(2), "a", "1", "2"),
		{Type: wal.RecCommit, TID: top(2)},
	}
	a := Analyze(1, nil, recs)
	if string(a.Data["srv"]["a"]) != "2" {
		t.Fatalf("a = %q, want \"2\"", a.Data["srv"]["a"])
	}
}

func TestPreparedTransactionIsInDoubt(t *testing.T) {
	txn := remoteTop(1) // coordinated elsewhere
	recs := []*wal.Record{
		upd(txn, "a", "old", "new"),
		{Type: wal.RecPrepare, TID: txn, Coordinator: 9},
	}
	a := Analyze(1, nil, recs)
	if len(a.InDoubt) != 1 {
		t.Fatalf("InDoubt = %v, want 1 entry", a.InDoubt)
	}
	d := a.InDoubt[0]
	if d.TID != txn || d.Coordinator != 9 || d.Protocol != wire.TwoPhase {
		t.Fatalf("InDoubt = %+v", d)
	}
	if len(d.Updates["srv"]) != 1 || d.Updates["srv"][0].Key != "a" {
		t.Fatalf("in-doubt updates = %v", d.Updates)
	}
	// In-doubt data must NOT be in the committed image.
	if len(a.Data["srv"]) != 0 {
		t.Fatalf("in-doubt update leaked into Data: %v", a.Data)
	}
}

func TestPreparedThenCommittedIsNotInDoubt(t *testing.T) {
	txn := remoteTop(1)
	recs := []*wal.Record{
		upd(txn, "a", "", "v"),
		{Type: wal.RecPrepare, TID: txn, Coordinator: 9},
		{Type: wal.RecCommit, TID: txn},
	}
	a := Analyze(1, nil, recs)
	if len(a.InDoubt) != 0 {
		t.Fatalf("resolved transaction still in doubt: %v", a.InDoubt)
	}
	if string(a.Data["srv"]["a"]) != "v" {
		t.Fatalf("committed update not redone")
	}
}

func TestNonBlockingInDoubtCarriesQuorumState(t *testing.T) {
	txn := remoteTop(2)
	sites := []tid.SiteID{1, 2, 9}
	votes := []wire.SiteVote{{Site: 1, Vote: wire.VoteYes}, {Site: 2, Vote: wire.VoteYes}}
	recs := []*wal.Record{
		upd(txn, "a", "", "v"),
		{Type: wal.RecPrepare, TID: txn, Coordinator: 9, Sites: sites, CommitQuorum: 2, AbortQuorum: 2},
		{Type: wal.RecNBReplicate, TID: txn, Coordinator: 9, Sites: sites, CommitQuorum: 2, AbortQuorum: 2, Votes: votes},
	}
	a := Analyze(1, nil, recs)
	if len(a.InDoubt) != 1 {
		t.Fatalf("InDoubt = %v", a.InDoubt)
	}
	d := a.InDoubt[0]
	if d.Protocol != wire.NonBlocking || !d.Replicated {
		t.Fatalf("InDoubt flags = %+v", d)
	}
	if d.CommitQuorum != 2 || d.AbortQuorum != 2 || len(d.Sites) != 3 {
		t.Fatalf("quorum state = %+v", d)
	}
	if len(d.Votes) != 2 {
		t.Fatalf("votes = %v", d.Votes)
	}
}

func TestAbortIntentRecorded(t *testing.T) {
	txn := remoteTop(3)
	recs := []*wal.Record{
		{Type: wal.RecPrepare, TID: txn, Coordinator: 9, Sites: []tid.SiteID{1, 9}, CommitQuorum: 2, AbortQuorum: 1},
		{Type: wal.RecNBAbortIntent, TID: txn},
	}
	a := Analyze(1, nil, recs)
	if len(a.InDoubt) != 1 || !a.InDoubt[0].AbortIntent {
		t.Fatalf("abort intent lost: %+v", a.InDoubt)
	}
}

func TestCoordinatorResumeWithoutEnd(t *testing.T) {
	txn := top(1) // our own family: we coordinated
	recs := []*wal.Record{
		upd(txn, "a", "", "v"),
		{Type: wal.RecCommit, TID: txn, Sites: []tid.SiteID{2, 3}},
	}
	a := Analyze(1, nil, recs)
	if len(a.Resume) != 1 {
		t.Fatalf("Resume = %v, want 1", a.Resume)
	}
	r := a.Resume[0]
	if r.TID != txn || len(r.UpdateSubs) != 2 {
		t.Fatalf("Resume = %+v", r)
	}
}

// TestRecoveryNamesOneProtocol pins the classifier's protocol column:
// a Paxos participant's records carry a site list, which must not read
// as non-blocking; and a decision is resumed as non-blocking only when
// a replication record precedes the COMMIT — a Paxos coordinator's
// COMMIT is 2PC-shaped and resumes through the two-phase notify path.
func TestRecoveryNamesOneProtocol(t *testing.T) {
	sites := []tid.SiteID{1, 2, 9}
	pax := remoteTop(4)
	a := Analyze(1, nil, []*wal.Record{
		{Type: wal.RecPaxosPrepare, TID: pax, Coordinator: 9, Sites: sites, Acceptors: sites},
	})
	if len(a.InDoubt) != 1 || a.InDoubt[0].Protocol != wire.Paxos || !a.InDoubt[0].Prepared {
		t.Fatalf("Paxos in-doubt = %+v", a.InDoubt)
	}

	nb, paxCoord := top(5), top(6)
	a = Analyze(1, nil, []*wal.Record{
		{Type: wal.RecNBReplicate, TID: nb, Sites: sites, CommitQuorum: 2, AbortQuorum: 2},
		{Type: wal.RecCommit, TID: nb, Sites: []tid.SiteID{2, 9}},
		{Type: wal.RecPaxosPrepare, TID: paxCoord, Coordinator: 1, Sites: sites, Acceptors: sites},
		{Type: wal.RecCommit, TID: paxCoord, Sites: []tid.SiteID{2, 9}},
	})
	got := map[tid.TID]wire.Protocol{}
	for _, r := range a.Resume {
		got[r.TID] = r.Protocol
	}
	if len(got) != 2 || got[nb] != wire.NonBlocking || got[paxCoord] != wire.TwoPhase {
		t.Fatalf("resume protocols = %v, want %v → nb, %v → 2pc", got, nb, paxCoord)
	}
}

func TestCoordinatorNoResumeAfterEnd(t *testing.T) {
	txn := top(1)
	recs := []*wal.Record{
		{Type: wal.RecCommit, TID: txn, Sites: []tid.SiteID{2}},
		{Type: wal.RecEnd, TID: txn},
	}
	a := Analyze(1, nil, recs)
	if len(a.Resume) != 0 {
		t.Fatalf("Resume after END: %v", a.Resume)
	}
}

func TestLocalOnlyCommitNeedsNoResume(t *testing.T) {
	recs := []*wal.Record{
		upd(top(1), "a", "", "v"),
		{Type: wal.RecCommit, TID: top(1)}, // no subordinate sites
	}
	a := Analyze(1, nil, recs)
	if len(a.Resume) != 0 {
		t.Fatalf("local-only commit scheduled a resume: %v", a.Resume)
	}
}

func TestAbortedChildSubtreeExcluded(t *testing.T) {
	parent := top(1)
	child := tid.TID{Family: parent.Family, Seq: tid.MakeSeq(1, 1)}
	grand := tid.TID{Family: parent.Family, Seq: tid.MakeSeq(1, 2)}
	recs := []*wal.Record{
		upd(parent, "p", "", "1"),
		{Type: wal.RecUpdate, TID: child, Parent: parent, Server: "srv", Key: "c", New: []byte("2")},
		{Type: wal.RecUpdate, TID: grand, Parent: child, Server: "srv", Key: "g", New: []byte("3")},
		{Type: wal.RecAbort, TID: child}, // nested abort
		{Type: wal.RecCommit, TID: parent},
	}
	a := Analyze(1, nil, recs)
	data := a.Data["srv"]
	if string(data["p"]) != "1" {
		t.Errorf("parent update lost: %v", data)
	}
	if _, ok := data["c"]; ok {
		t.Error("aborted child's update redone")
	}
	if _, ok := data["g"]; ok {
		t.Error("aborted child's descendant update redone")
	}
	if got := a.Outcomes.Get(parent.Family); got != wire.OutcomeCommit {
		t.Errorf("family outcome = %v, want commit: a nested abort dooms only its subtree", got)
	}
}

// A nested abort is not the family's outcome: a log whose only abort
// is nested leaves the family unresolved (presumed abort).
func TestNestedAbortIsNoOutcome(t *testing.T) {
	parent := top(1)
	child := tid.TID{Family: parent.Family, Seq: tid.MakeSeq(1, 1)}
	a := Analyze(1, nil, []*wal.Record{
		{Type: wal.RecUpdate, TID: child, Parent: parent, Server: "srv", Key: "c", New: []byte("2")},
		{Type: wal.RecAbort, TID: child},
	})
	if got := a.Outcomes.Get(parent.Family); got != wire.OutcomeUnknown {
		t.Fatalf("outcome = %v after a nested abort alone, want none", got)
	}
}

func TestCommittedChildIncludedWithFamily(t *testing.T) {
	parent := top(1)
	child := tid.TID{Family: parent.Family, Seq: tid.MakeSeq(1, 1)}
	recs := []*wal.Record{
		{Type: wal.RecUpdate, TID: child, Parent: parent, Server: "srv", Key: "c", New: []byte("2")},
		{Type: wal.RecCommit, TID: parent},
	}
	a := Analyze(1, nil, recs)
	if string(a.Data["srv"]["c"]) != "2" {
		t.Fatalf("committed child's update not redone: %v", a.Data)
	}
}

func TestDeleteRedo(t *testing.T) {
	recs := []*wal.Record{
		upd(top(1), "a", "", "v"),
		{Type: wal.RecCommit, TID: top(1)},
		// A nil New models deletion.
		{Type: wal.RecUpdate, TID: top(2), Server: "srv", Key: "a", Old: []byte("v")},
		{Type: wal.RecCommit, TID: top(2)},
	}
	a := Analyze(1, nil, recs)
	if _, ok := a.Data["srv"]["a"]; ok {
		t.Fatalf("deleted key present: %v", a.Data)
	}
}

// The log continues a checkpoint image: its committed updates land on
// top of the image, deletions included, and keys it never touches keep
// the image's value.
func TestRedoOntoImage(t *testing.T) {
	image := map[string]map[string][]byte{"srv": {"a": []byte("old"), "b": []byte("keep")}}
	recs := []*wal.Record{
		{Type: wal.RecUpdate, TID: top(1), Server: "srv", Key: "a", Old: []byte("old")}, // delete
		upd(top(1), "c", "", "new"),
		{Type: wal.RecCommit, TID: top(1)},
		upd(top(2), "b", "keep", "lost"), // presumed aborted
	}
	a := Analyze(1, image, recs)
	data := a.Data["srv"]
	if _, ok := data["a"]; ok {
		t.Errorf("key deleted by the log still in the image: %v", data)
	}
	if string(data["b"]) != "keep" || string(data["c"]) != "new" || len(data) != 2 {
		t.Errorf("Data = %v, want b=keep c=new", data)
	}
}

func TestEmptyLog(t *testing.T) {
	a := Analyze(1, nil, nil)
	if len(a.Data) != 0 || len(a.InDoubt) != 0 || len(a.Resume) != 0 {
		t.Fatalf("non-empty analysis of empty log: %+v", a)
	}
	if a.MaxLocalFamily != 0 {
		t.Fatalf("MaxLocalFamily = %d on empty log", a.MaxLocalFamily)
	}
}

func TestLogEndingMidFamilyActive(t *testing.T) {
	// The site died while a family was still active: updates logged,
	// no prepare, no outcome. Presumed abort discards the updates —
	// but the family counter must still advance past the dead family,
	// or its identifier could be reused.
	recs := []*wal.Record{
		upd(top(7), "a", "", "1"),
		upd(top(7), "b", "", "2"),
	}
	a := Analyze(1, nil, recs)
	if len(a.Data) != 0 {
		t.Fatalf("presumed-aborted updates redone: %v", a.Data)
	}
	if len(a.InDoubt) != 0 {
		t.Fatalf("active (unprepared) family in doubt: %+v", a.InDoubt)
	}
	if a.MaxLocalFamily != 7 {
		t.Fatalf("MaxLocalFamily = %d, want 7", a.MaxLocalFamily)
	}
}

func TestLogEndingMidFamilyPrepared(t *testing.T) {
	// The site died between its prepare force and the outcome: the
	// log ends mid-protocol. The family is in doubt, its updates ride
	// along for re-application under re-acquired locks, and nothing is
	// redone into committed state.
	recs := []*wal.Record{
		upd(top(3), "a", "", "1"),
		{Type: wal.RecPrepare, TID: top(3), Coordinator: 9},
	}
	a := Analyze(1, nil, recs)
	if len(a.Data) != 0 {
		t.Fatalf("in-doubt updates redone as committed: %v", a.Data)
	}
	if len(a.InDoubt) != 1 {
		t.Fatalf("InDoubt = %+v, want exactly the prepared family", a.InDoubt)
	}
	d := a.InDoubt[0]
	if d.TID != top(3) || d.Coordinator != 9 || d.Protocol != wire.TwoPhase {
		t.Fatalf("InDoubt = %+v", d)
	}
	if len(d.Updates["srv"]) != 1 || d.Updates["srv"][0].Key != "a" {
		t.Fatalf("in-doubt updates = %+v", d.Updates)
	}
}
