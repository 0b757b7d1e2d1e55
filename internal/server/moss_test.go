package server

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"camelot/internal/lockmgr"
	"camelot/internal/recman"
	"camelot/internal/sim"
	"camelot/internal/tid"
	"camelot/internal/wal"
)

// The Moss reference model: a tree of nested transactions, each with
// its own write set and its own locks. A write goes into the writer's
// write set; a child's commit merges its writes and locks into its
// parent's; an abort discards the subtree's; a top-level commit merges
// into the committed state. Nothing is updated in place and nothing is
// undone, so the model shares no mechanism with Server (in-place
// updates, one undo list per family, ancestor chains) and the two can
// be held to each other.

// mossTxn is one transaction of the model.
type mossTxn struct {
	id     tid.TID
	parent *mossTxn // nil at top level
	depth  int
	writes map[string]string
	locks  map[string]lockmgr.Mode
	live   bool
	joined bool // it has operated at the server
}

// chain is t's ancestor chain, outermost first, as the transaction
// manager hands it to the server.
func (t *mossTxn) chain() []tid.TID {
	var anc []tid.TID
	for p := t.parent; p != nil; p = p.parent {
		anc = append(anc, p.id)
	}
	slices.Reverse(anc)
	return anc
}

// above reports whether a is t or one of its ancestors.
func (t *mossTxn) above(a *mossTxn) bool {
	for ; t != nil; t = t.parent {
		if t == a {
			return true
		}
	}
	return false
}

var mossKeys = []string{"k0", "k1", "k2", "k3"}

// mossOps maps an op byte to its kind; the repeats weight the mix.
var mossOps = []string{"begin", "child", "child", "write", "write", "write", "read", "commit", "commit", "abort"}

// mossStats counts the shapes a run reached, so a test can require
// that its seeds exercised what it is about.
type mossStats struct {
	steps, topCommits, childCommits, childAborts int
	// intoUnjoined counts commits of a child that operated at the
	// server into a parent that never did; deepAborts counts child aborts that
	// doomed a joined grandchild or deeper descendant.
	intoUnjoined, deepAborts int
}

// mossRun drives one Server and the model side by side.
type mossRun struct {
	log       *wal.Log
	srv       *Server
	committed map[string]string
	all, live []*mossTxn
	families  uint32
	children  uint32
	stats     mossStats
}

// runMoss interprets prog three bytes an operation — kind, then two
// operands picking a live transaction and a key — against a fresh
// Server on the simulation kernel and against the model, and returns
// the first disagreement. After every operation it compares every
// key's value and every transaction's hold on every key; after every
// top-level commit, the image recovery rebuilds from the server's log
// with the model's committed state.
func runMoss(prog []byte) (mossStats, error) {
	k := sim.New(1)
	r := &mossRun{committed: make(map[string]string)}
	r.log = wal.Open(k, wal.NewMemStore(), wal.Config{ForceLatency: time.Millisecond})
	r.srv = New(k, "srv", &fakeJoiner{}, r.log, Config{LockTimeout: 10 * time.Millisecond})
	var err error
	k.Go("moss", func() {
		for i := 0; i+2 < len(prog) && err == nil; i += 3 {
			var op string
			op, err = r.step(prog[i], prog[i+1], prog[i+2])
			if err == nil {
				err = r.compare()
			}
			if err != nil {
				err = fmt.Errorf("op %d %s: %w", i/3, op, err)
			}
			r.stats.steps++
		}
		k.Stop()
	})
	k.RunUntil(time.Hour)
	if msg := k.Deadlocked(); msg != "" && err == nil {
		err = errors.New(msg)
	}
	return r.stats, err
}

// step applies one operation to both sides and checks its answer.
func (r *mossRun) step(kind, a, b byte) (string, error) {
	op := mossOps[int(kind)%len(mossOps)]
	if op == "begin" || len(r.live) == 0 {
		r.families++
		r.begin(nil, tid.Top(tid.MakeFamily(1, r.families)))
		return fmt.Sprintf("begin F1.%d", r.families), nil
	}
	t := r.live[int(a)%len(r.live)]
	key := mossKeys[int(b)%len(mossKeys)]
	switch op {
	case "child":
		if t.depth == 3 {
			return "child (too deep)", nil
		}
		r.children++
		c := r.begin(t, tid.TID{Family: t.id.Family, Seq: tid.MakeSeq(1, r.children)})
		return fmt.Sprintf("child %v of %v", c.id, t.id), nil
	case "write":
		val := fmt.Sprintf("%v#%d", t.id, r.stats.steps)
		t.joined = true
		err := r.srv.Write(t.id, t.chain(), key, []byte(val))
		if !r.grantable(t, key, lockmgr.Exclusive) {
			return "write " + key + " (refused)", wantRefused(err)
		}
		if err != nil {
			return "write " + key, err
		}
		t.writes[key] = val
		t.locks[key] = lockmgr.Exclusive
		return fmt.Sprintf("write %v %s=%s", t.id, key, val), nil
	case "read":
		t.joined = true
		got, err := r.srv.Read(t.id, t.chain(), key)
		if !r.grantable(t, key, lockmgr.Shared) {
			return "read " + key + " (refused)", wantRefused(err)
		}
		t.locks[key] = max(t.locks[key], lockmgr.Shared)
		want, ok := r.value(key)
		op := fmt.Sprintf("read %v %s", t.id, key)
		switch {
		case !ok && !errors.Is(err, ErrNoSuchKey):
			return op, fmt.Errorf("got %q, %v; want ErrNoSuchKey", got, err)
		case ok && (err != nil || string(got) != want):
			return op, fmt.Errorf("got %q, %v; want %q", got, err, want)
		}
		return op, nil
	case "commit":
		if slices.ContainsFunc(r.live, func(d *mossTxn) bool { return d != t && d.above(t) }) {
			return fmt.Sprintf("commit %v (has live descendants)", t.id), nil
		}
		if t.parent == nil {
			return fmt.Sprintf("commit %v", t.id), r.commitTop(t)
		}
		r.commitChild(t)
		return fmt.Sprintf("commit %v into %v", t.id, t.parent.id), nil
	default: // abort
		if t.parent == nil {
			r.srv.AbortFamily(t.id.Family)
		} else {
			r.stats.childAborts++
			r.srv.AbortChild(t.id)
		}
		for _, d := range slices.Clone(r.live) {
			if d.above(t) {
				if d.joined && d.depth >= t.depth+2 {
					r.stats.deepAborts++
				}
				r.end(d)
			}
		}
		return fmt.Sprintf("abort %v", t.id), nil
	}
}

func (r *mossRun) begin(parent *mossTxn, id tid.TID) *mossTxn {
	t := &mossTxn{id: id, parent: parent, writes: map[string]string{}, locks: map[string]lockmgr.Mode{}, live: true}
	if parent != nil {
		t.depth = parent.depth + 1
	}
	r.all = append(r.all, t)
	r.live = append(r.live, t)
	return t
}

// end forgets t's writes and locks and takes it off the live list.
func (r *mossRun) end(t *mossTxn) {
	t.live, t.writes, t.locks = false, nil, nil
	r.live = slices.DeleteFunc(r.live, func(x *mossTxn) bool { return x == t })
}

// commitChild merges t's writes and locks into its parent's (Moss
// inheritance), on both sides.
func (r *mossRun) commitChild(t *mossTxn) {
	r.stats.childCommits++
	if t.joined && !t.parent.joined {
		r.stats.intoUnjoined++
	}
	r.srv.CommitChild(t.id)
	p := t.parent
	for _, key := range mossKeys {
		if v, ok := t.writes[key]; ok {
			p.writes[key] = v
		}
		if m, ok := t.locks[key]; ok {
			p.locks[key] = max(p.locks[key], m)
		}
	}
	p.joined = p.joined || t.joined
	r.end(t)
}

// commitTop makes t's writes the committed state, as a transaction
// manager would: the commit record forced, then the server told. Then
// recovery's image of the log must be the model's committed state.
func (r *mossRun) commitTop(t *mossTxn) error {
	r.stats.topCommits++
	lsn, err := r.log.Append(&wal.Record{Type: wal.RecCommit, TID: t.id})
	if err == nil {
		err = r.log.Force(lsn)
	}
	if err != nil {
		return err
	}
	r.srv.CommitFamily(t.id.Family)
	for _, key := range mossKeys {
		if v, ok := t.writes[key]; ok {
			r.committed[key] = v
		}
	}
	r.end(t)
	recs, err := r.log.Records()
	if err != nil {
		return err
	}
	img := recman.Analyze(1, nil, recs).Data["srv"]
	for _, key := range mossKeys {
		want, ok := r.committed[key]
		var got []byte
		found := false
		if img != nil {
			got, found = img.Get(key)
		}
		if found != ok || string(got) != want {
			return fmt.Errorf("recovered %s = %q (%v), committed %q (%v)", key, got, found, want, ok)
		}
	}
	return nil
}

// grantable is the Moss locking rule: t may take key in mode if every
// other holder in a conflicting mode is one of its ancestors.
func (r *mossRun) grantable(t *mossTxn, key string, mode lockmgr.Mode) bool {
	for _, h := range r.live {
		m, ok := h.locks[key]
		if ok && h != t && (mode == lockmgr.Exclusive || m == lockmgr.Exclusive) && !t.above(h) {
			return false
		}
	}
	return true
}

// value is key's current value: the write of the deepest live
// transaction that wrote it (the exclusive locks put every such writer
// on one chain), else the committed value.
func (r *mossRun) value(key string) (string, bool) {
	var w *mossTxn
	for _, t := range r.live {
		if _, ok := t.writes[key]; ok && (w == nil || t.depth > w.depth) {
			w = t
		}
	}
	if w != nil {
		return w.writes[key], true
	}
	v, ok := r.committed[key]
	return v, ok
}

// compare checks every key's value and every transaction's holdings.
func (r *mossRun) compare() error {
	for _, key := range mossKeys {
		want, ok := r.value(key)
		got, found := r.srv.Peek(key)
		if found != ok || string(got) != want {
			return fmt.Errorf("%s = %q (%v), model %q (%v)", key, got, found, want, ok)
		}
		for _, t := range r.all {
			gm, gok := r.srv.Locks().Holds(t.id, key)
			wm, wok := t.locks[key]
			if gok != wok || gm != wm {
				return fmt.Errorf("%v holds %s: %v %v, model %v %v", t.id, key, gm, gok, wm, wok)
			}
		}
	}
	return nil
}

func wantRefused(err error) error {
	if !errors.Is(err, ErrLockTimeout) {
		return fmt.Errorf("got %v, want ErrLockTimeout", err)
	}
	return nil
}

// mossGrandparent is the remote-grandparent shape at one server:
// top → G → P → C, only C operates here, C commits into P (which never
// joined), then G aborts. C's write must go with it.
var mossGrandparent = []byte{
	0, 0, 0, // begin top
	1, 0, 0, // child G of top
	1, 1, 0, // child P of G
	1, 2, 0, // child C of P
	3, 3, 1, // C writes k1
	7, 3, 0, // C commits into P
	9, 1, 0, // G aborts
	7, 0, 0, // top commits
}

// mossAbortThenRecover: a child writes and aborts, its parent commits;
// the image recovery rebuilds from the log must not hold the child's
// write.
var mossAbortThenRecover = []byte{
	0, 0, 0, // begin top
	3, 0, 0, // top writes k0
	1, 0, 0, // child C of top
	3, 1, 1, // C writes k1
	3, 1, 0, // C overwrites k0
	9, 1, 0, // C aborts
	7, 0, 0, // top commits
}

// TestMossModel drives Server beside the Moss model with seeded random
// programs: several families at once, up to four levels deep, commits
// into parents that never joined, aborts of whole subtrees.
func TestMossModel(t *testing.T) {
	for _, c := range []struct {
		name string
		prog []byte
	}{{"grandparent", mossGrandparent}, {"abort-then-recover", mossAbortThenRecover}} {
		if _, err := runMoss(c.prog); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
	var total mossStats
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 3*150)
		rng.Read(prog)
		st, err := runMoss(prog)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		total.steps += st.steps
		total.topCommits += st.topCommits
		total.childCommits += st.childCommits
		total.childAborts += st.childAborts
		total.intoUnjoined += st.intoUnjoined
		total.deepAborts += st.deepAborts
	}
	t.Logf("%+v", total)
	if total.topCommits == 0 || total.childCommits == 0 || total.childAborts == 0 || total.intoUnjoined == 0 || total.deepAborts == 0 {
		t.Fatalf("the seeds missed a shape: %+v", total)
	}
}

// FuzzMoss runs arbitrary programs against Server and the model.
func FuzzMoss(f *testing.F) {
	f.Add(mossGrandparent)
	f.Add(mossAbortThenRecover)
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 3*300 {
			prog = prog[:3*300]
		}
		if _, err := runMoss(prog); err != nil {
			t.Fatal(err)
		}
	})
}
