// Package server implements the Camelot data-server framework: a
// process that manages recoverable objects, serializes access with
// shared/exclusive locks, reports old/new object values to the log,
// and participates in commitment by joining transactions at its local
// transaction manager (Figure 1, steps 4–6 and 8–11 of the paper).
//
// Objects are byte-string values named by keys, held in one
// segment.Segment, the server's recoverable segment: recovery hands it
// over whole (Install). A value is copied on its way in (Write writes
// it into the segment, and gives the log record bytes of its own) and
// on its way out (Read, Peek). Updates are applied in place under
// exclusive locks with the old value retained for undo, the same bytes
// the update record logs, which together with the write-ahead update
// records gives the usual steal/no-force recovery discipline.
package server

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"camelot/internal/lockmgr"
	"camelot/internal/params"
	"camelot/internal/rt"
	"camelot/internal/segment"
	"camelot/internal/tid"
	"camelot/internal/wal"
	"camelot/internal/wire"
)

// Operation errors.
var (
	// ErrLockTimeout reports a lock wait that exceeded the server's
	// timeout; the caller should abort the transaction.
	ErrLockTimeout = errors.New("server: lock wait timed out")
	// ErrNoSuchKey reports a read of a key that has no value.
	ErrNoSuchKey = errors.New("server: no such key")
)

// Joiner is the server's view of its local transaction manager: the
// "may I join?" call of Figure 1 step 4.
type Joiner interface {
	// Join registers p as a participant in t's family at this site.
	// anc is t's ancestor chain, outermost first; nil for a top-level
	// transaction.
	Join(t tid.TID, anc []tid.TID, p Participant) error
}

// Participant is what the transaction manager asks of a joined
// server during commitment. It is implemented by *Server.
type Participant interface {
	// Name identifies the server in log records and traces.
	Name() string
	// Vote is the phase-one inquiry: VoteYes if the family updated
	// objects here, VoteReadOnly if not, VoteNo if the server cannot
	// commit.
	Vote(f tid.FamilyID) wire.Vote
	// CommitFamily makes the family's updates permanent and drops its
	// locks.
	CommitFamily(f tid.FamilyID)
	// AbortFamily undoes the family's updates and drops its locks.
	AbortFamily(f tid.FamilyID)
	// CommitChild merges a committed nested transaction into its
	// parent, the last of the chain it joined with (locks and undo
	// responsibility transfer).
	CommitChild(child tid.TID)
	// AbortChild undoes a nested transaction and its descendants
	// without disturbing the rest of the family.
	AbortChild(child tid.TID)
}

// Config parameterizes a server.
type Config struct {
	// LockTimeout bounds lock waits; ErrLockTimeout after it.
	LockTimeout time.Duration
	// Params is the latency model; zero values charge nothing.
	Params params.Params
	// Kernel, if non-nil, is the site's serially shared kernel
	// processor through which IPC costs are charged.
	Kernel *rt.CPU
}

// Server is one data server.
type Server struct {
	name  string
	r     rt.Runtime
	tm    Joiner
	log   *wal.Log
	locks *lockmgr.Manager
	cfg   Config

	mu       rt.Mutex
	joinDone rt.Cond // a join's answer arrived
	data     *segment.Segment
	families map[tid.FamilyID]*family
	reads    int
	writes   int
}

// family is all the server keeps for one transaction family, from
// its first operation here to its end (DESIGN §3.8).
type family struct {
	members []member // in join order
	undo    []undoEntry
	indoubt bool // recovered prepared: votes Yes with no undo
}

// member is one of the family's transactions at this server.
type member struct {
	t       tid.TID
	anc     []tid.TID // t's ancestors, outermost first
	joining bool      // the transaction manager has not answered yet
}

type undoEntry struct {
	t   tid.TID
	key string
	old []byte // the key's value before, nil if it had none; its update record's Old
}

// New creates a server. It becomes usable for operations immediately;
// it participates in commitment through the Participant methods the
// transaction manager invokes.
func New(r rt.Runtime, name string, tm Joiner, log *wal.Log, cfg Config) *Server {
	s := &Server{
		name:     name,
		r:        r,
		tm:       tm,
		log:      log,
		locks:    lockmgr.New(r),
		cfg:      cfg,
		data:     segment.New(0),
		families: make(map[tid.FamilyID]*family),
	}
	s.mu = r.NewMutex()
	s.joinDone = r.NewCond(s.mu)
	return s
}

// Name returns the server's registered name.
func (s *Server) Name() string { return s.name }

// Read returns key's value as seen by t, under a shared lock. anc is
// t's ancestor chain, outermost first (nil for a top-level
// transaction).
func (s *Server) Read(t tid.TID, anc []tid.TID, key string) ([]byte, error) {
	if err := s.acquire(t, anc, key, lockmgr.Shared); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.data.Get(key)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchKey, key)
	}
	s.reads++
	return present(v), nil
}

// Write sets key to val on behalf of t under an exclusive lock,
// reporting the old and new value to the log (durable no later than
// the family's prepare or commit force).
func (s *Server) Write(t tid.TID, anc []tid.TID, key string, val []byte) error {
	if err := s.acquire(t, anc, key, lockmgr.Exclusive); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	undo := undoEntry{t: t, key: key}
	if old, ok := s.data.Put(key, val); ok {
		undo.old = present(old)
	}
	rec := &wal.Record{
		Type:   wal.RecUpdate,
		TID:    t,
		Parent: tid.Parent(anc),
		Server: s.name,
		Key:    key,
		Old:    undo.old,
		// Bytes of the log's own, never nil (a nil New is a delete to
		// recovery): the record is encoded only at the family's force,
		// and the caller may reuse val before then.
		New: present(val),
	}
	if _, err := s.log.Append(rec); err != nil {
		s.setLocked(key, undo.old)
		return fmt.Errorf("server %s: log update: %w", s.name, err)
	}
	fam := s.familyLocked(t.Family)
	fam.undo = append(fam.undo, undo)
	s.writes++
	return nil
}

// Vote implements Participant.
func (s *Server) Vote(f tid.FamilyID) wire.Vote {
	s.mu.Lock()
	defer s.mu.Unlock()
	if fam := s.families[f]; fam != nil && (len(fam.undo) > 0 || fam.indoubt) {
		return wire.VoteYes
	}
	return wire.VoteReadOnly
}

// CommitFamily implements Participant: updates are already in place,
// so committing forgets the family and drops every lock it holds
// (Figure 1 step 11).
func (s *Server) CommitFamily(f tid.FamilyID) { s.end(f, false) }

// AbortFamily implements Participant: undo in reverse order, then
// drop locks.
func (s *Server) AbortFamily(f tid.FamilyID) { s.end(f, true) }

// end forgets family f, undoing its updates first if it aborted, and
// drops its members' locks.
func (s *Server) end(f tid.FamilyID, abort bool) {
	s.mu.Lock()
	fam := s.families[f]
	delete(s.families, f)
	if fam == nil {
		s.mu.Unlock()
		return
	}
	for i := len(fam.undo) - 1; abort && i >= 0; i-- {
		s.setLocked(fam.undo[i].key, fam.undo[i].old)
	}
	s.mu.Unlock()
	s.dropLocks(fam.members)
}

// CommitChild implements Participant: the child's undo entries are
// re-tagged to its parent, which takes the child's place among the
// members with the chain cut by one, and its locks are inherited.
func (s *Server) CommitChild(child tid.TID) {
	s.mu.Lock()
	fam := s.families[child.Family]
	i := fam.index(child)
	if i < 0 || len(fam.members[i].anc) == 0 {
		s.mu.Unlock()
		return
	}
	anc := fam.members[i].anc
	parent := anc[len(anc)-1]
	for j := range fam.undo {
		if fam.undo[j].t == child {
			fam.undo[j].t = parent
		}
	}
	if fam.index(parent) >= 0 {
		fam.members = slices.Delete(fam.members, i, i+1)
	} else {
		fam.members[i] = member{t: parent, anc: anc[:len(anc)-1]}
	}
	s.mu.Unlock()
	s.locks.OnChildCommit(child, parent)
}

// AbortChild implements Participant: undo the updates of the child
// and of every member with the child in its chain, in reverse order,
// and release their locks, in join order. Each undo is logged as an
// update of its own, so redoing the log in order needs no ancestry.
func (s *Server) AbortChild(child tid.TID) {
	s.mu.Lock()
	fam := s.families[child.Family]
	if fam == nil {
		s.mu.Unlock()
		return
	}
	var victims []member
	for _, m := range fam.members {
		if m.t == child || slices.Contains(m.anc, child) {
			victims = append(victims, m)
		}
	}
	doomed := func(t tid.TID) bool {
		return slices.ContainsFunc(victims, func(m member) bool { return m.t == t })
	}
	for i := len(fam.undo) - 1; i >= 0; i-- {
		if doomed(fam.undo[i].t) {
			s.compensateLocked(fam.undo[i])
		}
	}
	fam.undo = slices.DeleteFunc(fam.undo, func(e undoEntry) bool { return doomed(e.t) })
	fam.members = slices.DeleteFunc(fam.members, func(m member) bool { return doomed(m.t) })
	s.mu.Unlock()
	s.dropLocks(victims)
}

// Install replaces the server's committed state with data, the
// segment the recovery process redid the log onto; the server takes
// it over without a copy.
func (s *Server) Install(data *segment.Segment) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data = data
}

// Reacquire restores an in-doubt (prepared but unresolved)
// transaction after a crash from its UPDATE records, in log order: its
// updates are re-applied, its undo information reinstalled, and its
// write locks re-taken, so the eventual CommitFamily or AbortFamily
// behaves exactly as if the crash had not happened. It is called once
// per in-doubt family, on a freshly recovered server.
func (s *Server) Reacquire(t tid.TID, updates []*wal.Record) {
	s.mu.Lock()
	fam := &family{members: []member{{t: t}}, indoubt: true}
	s.families[t.Family] = fam
	for _, u := range updates {
		fam.undo = append(fam.undo, undoEntry{t: t, key: u.Key, old: u.Old})
		s.setLocked(u.Key, u.New)
	}
	s.mu.Unlock()
	for _, u := range updates {
		// Freshly recovered lock table: acquisition cannot block.
		s.locks.Acquire(t, u.Key, lockmgr.Exclusive, 0) //nolint:errcheck
	}
}

// Peek returns key's current value without locking — for tests,
// tools and examples inspecting state between transactions. Writes
// update in place, so an in-doubt transaction's value shows too.
func (s *Server) Peek(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.data.Get(key)
	if !ok {
		return nil, false
	}
	return present(v), true
}

// OpCounts reports reads and writes served.
func (s *Server) OpCounts() (reads, writes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reads, s.writes
}

// Locks exposes the lock manager for contention statistics.
func (s *Server) Locks() *lockmgr.Manager { return s.locks }

// join registers t with the local transaction manager on its first
// operation at this server (Figure 1 step 4). t becomes a member of
// its family's record only once the manager accepts it, so an
// operation retried after a refused join asks again. One join per
// transaction is in flight at a time: a concurrent operation of t
// waits for its answer.
func (s *Server) join(t tid.TID, anc []tid.TID) error {
	s.mu.Lock()
	fam := s.families[t.Family]
	for i := fam.index(t); i >= 0; i = fam.index(t) {
		if !fam.members[i].joining {
			s.mu.Unlock()
			return nil
		}
		s.joinDone.Wait()
		fam = s.families[t.Family]
	}
	fam = s.familyLocked(t.Family)
	fam.members = append(fam.members, member{t: t, anc: anc, joining: true})
	s.mu.Unlock()
	// Joining is a synchronous IPC to the transaction manager.
	rt.Charge(s.r, s.cfg.Kernel, s.cfg.Params.LocalIPC+s.cfg.Params.KernelCPU)
	err := s.tm.Join(t, anc, s)
	s.mu.Lock()
	fam = s.families[t.Family]
	switch i := fam.index(t); {
	case i < 0: // the family ended meanwhile
	case err == nil:
		fam.members[i].joining = false
	default:
		fam.members = slices.Delete(fam.members, i, i+1)
		if len(fam.members) == 0 && len(fam.undo) == 0 {
			delete(s.families, t.Family)
		}
	}
	s.joinDone.Broadcast()
	s.mu.Unlock()
	return err
}

// acquire is every operation's prologue: t joins on its first
// operation here, takes key in mode, and the server's CPU is charged.
func (s *Server) acquire(t tid.TID, anc []tid.TID, key string, mode lockmgr.Mode) error {
	if err := s.join(t, anc); err != nil {
		return err
	}
	rt.Charge(s.r, nil, s.cfg.Params.GetLock)
	timeout := s.cfg.LockTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	if err := s.locks.Acquire(t, key, mode, timeout, anc...); err != nil {
		return fmt.Errorf("%w: %s %s/%s", ErrLockTimeout, t, s.name, key)
	}
	rt.Charge(s.r, nil, s.cfg.Params.ServerCPU)
	return nil
}

// compensateLocked undoes e and logs the undo as an update of e's
// transaction, lazily like any update: Old is the value the undo
// replaces, New the one it puts back (nil: the key is removed). The
// record is durable by the family's next prepare or commit force, so
// a committed family's log redone in order ends at the undone value.
func (s *Server) compensateLocked(e undoEntry) {
	var cur []byte
	if v, ok := s.data.Get(e.key); ok {
		cur = present(v)
	}
	s.setLocked(e.key, e.old)
	// Append fails only on a closed log, which forces nothing more of
	// this family: its commit can no longer become durable here.
	s.log.Append(&wal.Record{Type: wal.RecUpdate, TID: e.t, Server: s.name, Key: e.key, Old: cur, New: e.old}) //nolint:errcheck
}

// setLocked sets key to v, or removes key if v is nil.
func (s *Server) setLocked(key string, v []byte) {
	if v != nil {
		s.data.Put(key, v)
	} else {
		s.data.Remove(key)
	}
}

// present returns a copy of a value, non-nil even when empty: nil
// means absent to the log and to undo.
func present(v []byte) []byte { return append([]byte{}, v...) }

// familyLocked returns f's record, making it on f's first use.
func (s *Server) familyLocked(f tid.FamilyID) *family {
	fam := s.families[f]
	if fam == nil {
		fam = &family{}
		s.families[f] = fam
	}
	return fam
}

// index returns the position of t among the members, or -1; a nil
// record has none.
func (fam *family) index(t tid.TID) int {
	if fam == nil {
		return -1
	}
	return slices.IndexFunc(fam.members, func(m member) bool { return m.t == t })
}

func (s *Server) dropLocks(members []member) {
	for _, m := range members {
		rt.Charge(s.r, nil, s.cfg.Params.DropLock)
		s.locks.Release(m.t)
	}
}
