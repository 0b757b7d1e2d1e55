// Package server implements the Camelot data-server framework: a
// process that manages recoverable objects, serializes access with
// shared/exclusive locks, reports old/new object values to the log,
// and participates in commitment by joining transactions at its local
// transaction manager (Figure 1, steps 4–6 and 8–11 of the paper).
//
// Objects are byte-string values named by keys, held as immutable Go
// strings: a value is copied on its way in (Write, which also gives
// the log record bytes of its own) and on its way out (Read, Peek),
// and never in between. Updates are applied
// in place under exclusive locks with the old value retained for
// undo, which together with the write-ahead update records gives the
// usual steal/no-force recovery discipline.
package server

import (
	"errors"
	"fmt"
	"time"

	"camelot/internal/lockmgr"
	"camelot/internal/params"
	"camelot/internal/rt"
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
	// parent is the zero TID for top-level transactions.
	Join(t, parent tid.TID, p Participant) error
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
	// parent (locks and undo responsibility transfer).
	CommitChild(child, parent tid.TID)
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
	data     map[string]string
	undo     map[tid.FamilyID][]undoEntry
	joined   map[tid.FamilyID]map[tid.TID]bool
	parentOf map[tid.TID]tid.TID
	indoubt  map[tid.FamilyID]bool // recovered prepared families
	reads    int
	writes   int
}

type undoEntry struct {
	t   tid.TID
	key string
	old string
	had bool // whether the key existed before
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
		data:     make(map[string]string),
		undo:     make(map[tid.FamilyID][]undoEntry),
		joined:   make(map[tid.FamilyID]map[tid.TID]bool),
		parentOf: make(map[tid.TID]tid.TID),
		indoubt:  make(map[tid.FamilyID]bool),
	}
	s.mu = r.NewMutex()
	return s
}

// Name returns the server's registered name.
func (s *Server) Name() string { return s.name }

// Read returns key's value as seen by t, under a shared lock. parent
// is t's parent for nested transactions (zero TID otherwise).
func (s *Server) Read(t, parent tid.TID, key string) ([]byte, error) {
	if err := s.join(t, parent); err != nil {
		return nil, err
	}
	if err := s.acquire(t, key, lockmgr.Shared); err != nil {
		return nil, err
	}
	s.chargeCPU()
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.data[key]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchKey, key)
	}
	s.reads++
	return []byte(v), nil
}

// Write sets key to val on behalf of t under an exclusive lock,
// reporting the old and new value to the log (durable no later than
// the family's prepare or commit force).
func (s *Server) Write(t, parent tid.TID, key string, val []byte) error {
	if err := s.join(t, parent); err != nil {
		return err
	}
	if err := s.acquire(t, key, lockmgr.Exclusive); err != nil {
		return err
	}
	s.chargeCPU()
	s.mu.Lock()
	defer s.mu.Unlock()
	v := string(val)
	rec := &wal.Record{
		Type:   wal.RecUpdate,
		TID:    t,
		Parent: s.parentOf[t],
		Server: s.name,
		Key:    key,
		// Bytes of the log's own, never nil (a nil New is a delete to
		// recovery): the record is encoded only at the family's force,
		// and the caller may reuse val before then.
		New: []byte(v),
	}
	old, had := s.data[key]
	if had {
		rec.Old = []byte(old)
	}
	if _, err := s.log.Append(rec); err != nil {
		return fmt.Errorf("server %s: log update: %w", s.name, err)
	}
	s.undo[t.Family] = append(s.undo[t.Family], undoEntry{t: t, key: key, old: old, had: had})
	s.data[key] = v
	s.writes++
	return nil
}

// Vote implements Participant.
func (s *Server) Vote(f tid.FamilyID) wire.Vote {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.undo[f]) == 0 && !s.indoubt[f] {
		return wire.VoteReadOnly
	}
	return wire.VoteYes
}

// CommitFamily implements Participant: updates are already in place,
// so committing clears undo state and drops every lock the family
// holds (Figure 1 step 11).
func (s *Server) CommitFamily(f tid.FamilyID) {
	s.mu.Lock()
	txns := s.familyTxnsLocked(f)
	delete(s.undo, f)
	delete(s.joined, f)
	delete(s.indoubt, f)
	s.mu.Unlock()
	s.dropLocks(txns)
}

// AbortFamily implements Participant: undo in reverse order, then
// drop locks.
func (s *Server) AbortFamily(f tid.FamilyID) {
	s.mu.Lock()
	entries := s.undo[f]
	for i := len(entries) - 1; i >= 0; i-- {
		s.applyUndoLocked(entries[i])
	}
	txns := s.familyTxnsLocked(f)
	delete(s.undo, f)
	delete(s.joined, f)
	delete(s.indoubt, f)
	s.mu.Unlock()
	s.dropLocks(txns)
}

// CommitChild implements Participant: the child's undo entries are
// re-tagged to the parent and its locks are inherited.
func (s *Server) CommitChild(child, parent tid.TID) {
	s.mu.Lock()
	entries := s.undo[child.Family]
	for i := range entries {
		if entries[i].t == child {
			entries[i].t = parent
		}
	}
	if j := s.joined[child.Family]; j != nil {
		delete(j, child)
		j[parent] = true
	}
	delete(s.parentOf, child)
	s.mu.Unlock()
	s.locks.OnChildCommit(child, parent)
}

// AbortChild implements Participant: undo the child's and its
// descendants' updates in reverse order and release their locks.
func (s *Server) AbortChild(child tid.TID) {
	s.mu.Lock()
	doomed := map[tid.TID]bool{child: true}
	// Descendants: any txn whose ancestry chain reaches child.
	for t := range s.parentOf {
		for cur := t; ; {
			p, ok := s.parentOf[cur]
			if !ok {
				break
			}
			if doomed[p] {
				doomed[t] = true
				break
			}
			cur = p
		}
	}
	f := child.Family
	var kept []undoEntry
	entries := s.undo[f]
	for i := len(entries) - 1; i >= 0; i-- {
		if doomed[entries[i].t] {
			s.applyUndoLocked(entries[i])
		}
	}
	for _, e := range entries {
		if !doomed[e.t] {
			kept = append(kept, e)
		}
	}
	s.undo[f] = kept
	var victims []tid.TID
	for t := range doomed {
		victims = append(victims, t)
		if j := s.joined[f]; j != nil {
			delete(j, t)
		}
		delete(s.parentOf, t)
	}
	s.mu.Unlock()
	s.dropLocks(victims)
}

// Install replaces the server's committed state with data, which the
// server takes ownership of; the recovery process calls it after
// replaying the log.
func (s *Server) Install(data map[string]string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data = data
}

// Reacquire restores an in-doubt (prepared but unresolved)
// transaction after a crash from its UPDATE records, in log order: its
// updates are re-applied, its undo information reinstalled, and its
// write locks re-taken, so the eventual CommitFamily or AbortFamily
// behaves exactly as if the crash had not happened.
func (s *Server) Reacquire(t tid.TID, updates []*wal.Record) {
	s.mu.Lock()
	s.indoubt[t.Family] = true
	if s.joined[t.Family] == nil {
		s.joined[t.Family] = make(map[tid.TID]bool)
	}
	s.joined[t.Family][t] = true
	for _, u := range updates {
		s.undo[t.Family] = append(s.undo[t.Family], undoEntry{
			t: t, key: u.Key, old: string(u.Old), had: u.Old != nil,
		})
		s.data[u.Key] = string(u.New)
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
	v, ok := s.data[key]
	if !ok {
		return nil, false
	}
	return []byte(v), true
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
// operation at this server (Figure 1 step 4).
func (s *Server) join(t, parent tid.TID) error {
	s.mu.Lock()
	fam := s.joined[t.Family]
	already := fam != nil && fam[t]
	if !already {
		if fam == nil {
			fam = make(map[tid.TID]bool)
			s.joined[t.Family] = fam
		}
		fam[t] = true
		if !parent.IsZero() {
			s.parentOf[t] = parent
			s.locks.SetParent(t, parent)
		}
	}
	s.mu.Unlock()
	if already {
		return nil
	}
	// Joining is a synchronous IPC to the transaction manager.
	rt.Charge(s.r, s.cfg.Kernel, s.cfg.Params.LocalIPC+s.cfg.Params.KernelCPU)
	return s.tm.Join(t, parent, s)
}

func (s *Server) acquire(t tid.TID, key string, mode lockmgr.Mode) error {
	if s.cfg.Params.GetLock > 0 {
		s.r.Sleep(s.cfg.Params.GetLock)
	}
	timeout := s.cfg.LockTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	if err := s.locks.Acquire(t, key, mode, timeout); err != nil {
		return fmt.Errorf("%w: %s %s/%s", ErrLockTimeout, t, s.name, key)
	}
	return nil
}

func (s *Server) chargeCPU() {
	if s.cfg.Params.ServerCPU > 0 {
		s.r.Sleep(s.cfg.Params.ServerCPU)
	}
}

func (s *Server) applyUndoLocked(e undoEntry) {
	if e.had {
		s.data[e.key] = e.old
	} else {
		delete(s.data, e.key)
	}
}

func (s *Server) familyTxnsLocked(f tid.FamilyID) []tid.TID {
	var out []tid.TID
	for t := range s.joined[f] {
		out = append(out, t)
		delete(s.parentOf, t)
	}
	return out
}

func (s *Server) dropLocks(txns []tid.TID) {
	for _, t := range txns {
		if s.cfg.Params.DropLock > 0 {
			s.r.Sleep(s.cfg.Params.DropLock)
		}
		s.locks.Release(t)
	}
}
