// Package lockmgr implements the shared/exclusive lock manager data
// servers use to serialize access to their objects, with the
// nested-transaction (Moss model) inheritance rules Camelot's
// transaction model requires: a transaction may acquire a lock whose
// conflicting holders are all its ancestors, and a committing child's
// locks are inherited by its parent ("anti-inheritance" releases them
// on abort).
//
// Deadlock between transactions is broken by timeout: a lock request
// that cannot be granted within its timeout fails, and the caller is
// expected to abort the requesting transaction (the paper's data
// servers rely on the runtime library's locking package the same
// way; the internal lock *hierarchy* it describes is about mutexes
// inside the transaction manager, which internal/core handles
// separately).
package lockmgr

import (
	"errors"
	"slices"
	"time"

	"camelot/internal/rt"
	"camelot/internal/tid"
)

// Mode is a lock mode.
type Mode uint8

// Lock modes; Exclusive conflicts with everything, Shared only with
// Exclusive.
const (
	Shared Mode = iota + 1
	Exclusive
)

// String returns "S" or "X".
func (m Mode) String() string {
	if m == Exclusive {
		return "X"
	}
	return "S"
}

// ErrTimeout is returned when a lock request waits past its timeout;
// the caller should abort the transaction.
var ErrTimeout = errors.New("lockmgr: lock wait timed out")

// Manager is one data server's lock table.
//
// A key's lock is deleted with its last holder and waiter, and a
// transaction's key list with its release or its commit into its
// parent. The key→lock map itself is replaced when it empties after
// having grown past its first table, since a Go map never gives back
// the table it grew.
type Manager struct {
	r    rt.Runtime
	mu   rt.Mutex
	cond rt.Cond

	locks  map[string]*lock
	parent map[tid.TID]tid.TID // nested-transaction tree
	// held lists the keys each transaction holds, each key once, in
	// the order it first came to hold it.
	held map[tid.TID][]string
	// peak is the most locks the current locks map has held at once.
	peak int

	waits     int
	waitTotal time.Duration
}

// smallTable is the most locks a map holds in its first table (one
// eight-slot bucket or group); an emptied map that never held more
// is kept, so a table serving one small transaction after another
// allocates no map memory at all.
const smallTable = 8

type holder struct {
	t    tid.TID
	mode Mode
}

type lock struct {
	// holders is backed by one until a second transaction shares the
	// lock, so an uncontended lock is this one allocation.
	holders []holder
	one     [1]holder
	// waiters is FIFO; each entry is re-examined on every release or
	// inheritance event.
	waiters []*waiter
}

type waiter struct {
	t       tid.TID
	mode    Mode
	granted bool
	timeout bool
}

// indexOf returns the index of t among l's holders, or -1.
func (l *lock) indexOf(t tid.TID) int {
	for i := range l.holders {
		if l.holders[i].t == t {
			return i
		}
	}
	return -1
}

// drop removes holder t from l and returns the mode it held.
func (l *lock) drop(t tid.TID) Mode {
	i := l.indexOf(t)
	mode := l.holders[i].mode
	l.holders = slices.Delete(l.holders, i, i+1)
	return mode
}

// New returns an empty lock manager.
func New(r rt.Runtime) *Manager {
	m := &Manager{
		r:      r,
		locks:  make(map[string]*lock),
		parent: make(map[tid.TID]tid.TID),
		held:   make(map[tid.TID][]string),
	}
	m.mu = r.NewMutex()
	m.cond = r.NewCond(m.mu)
	return m
}

// SetParent records that child is a nested transaction of parent, for
// ancestry checks and inheritance.
func (m *Manager) SetParent(child, parent tid.TID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.parent[child] = parent
}

// Acquire obtains key in mode for t, blocking up to timeout. Lock
// upgrades (S held, X requested) are granted in place when
// permissible. A zero timeout never blocks.
func (m *Manager) Acquire(t tid.TID, key string, mode Mode, timeout time.Duration) error {
	m.mu.Lock()
	defer m.mu.Unlock()

	l := m.locks[key]
	if l == nil {
		l = &lock{}
		l.holders = l.one[:0]
		m.locks[key] = l
		m.peak = max(m.peak, len(m.locks))
	}
	// A new request may be granted immediately only if nothing is
	// queued ahead of it, so a waiting exclusive request is not
	// starved by a stream of compatible shared requests. Requests
	// from a transaction that already holds the lock (re-entry or
	// upgrade) jump the queue, the standard escape from the
	// upgrade-behind-own-waiter deadlock.
	if (len(l.waiters) == 0 || l.indexOf(t) >= 0) && m.grantableLocked(l, t, mode) {
		m.grantLocked(l, t, key, mode)
		return nil
	}
	if timeout <= 0 {
		return ErrTimeout
	}

	w := &waiter{t: t, mode: mode}
	l.waiters = append(l.waiters, w)
	start := m.r.Now()
	timer := m.r.After(timeout, func() {
		m.mu.Lock()
		w.timeout = true
		m.cond.Broadcast()
		m.mu.Unlock()
	})
	defer timer.Stop()

	m.waits++
	for !w.granted && !w.timeout {
		m.cond.Wait()
	}
	m.waitTotal += m.r.Now() - start
	if !w.granted {
		m.removeWaiterLocked(l, w)
		return ErrTimeout
	}
	return nil
}

// Release drops every lock held by t and wakes eligible waiters.
// This is the "drop the locks held by the transaction" step of
// Figure 1 (step 11).
func (m *Manager) Release(t tid.TID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, key := range m.held[t] {
		l := m.locks[key]
		l.drop(t)
		m.promoteLocked(l, key)
		if len(l.holders) == 0 && len(l.waiters) == 0 {
			delete(m.locks, key)
		}
	}
	if len(m.locks) == 0 && m.peak > smallTable {
		m.locks = make(map[string]*lock)
		m.peak = 0
	}
	delete(m.held, t)
	delete(m.parent, t)
}

// OnChildCommit transfers every lock held by child to parent, the
// Moss inheritance rule for a committing nested transaction.
func (m *Manager) OnChildCommit(child, parent tid.TID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, key := range m.held[child] {
		l := m.locks[key]
		m.grantLocked(l, parent, key, l.drop(child))
		m.promoteLocked(l, key)
	}
	delete(m.held, child)
	delete(m.parent, child)
}

// HoldsAny reports whether t currently holds any lock.
func (m *Manager) HoldsAny(t tid.TID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.held[t]) > 0
}

// Holds reports t's mode on key, if any.
func (m *Manager) Holds(t tid.TID, key string) (Mode, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	l := m.locks[key]
	if l == nil {
		return 0, false
	}
	if i := l.indexOf(t); i >= 0 {
		return l.holders[i].mode, true
	}
	return 0, false
}

// Waits reports how many lock requests have blocked and their total
// wait time — the lock-contention measure of the paper's §4.2
// analysis.
func (m *Manager) Waits() (int, time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.waits, m.waitTotal
}

// grantableLocked reports whether t may take key in mode right now:
// every conflicting holder must be t itself (upgrade) or an ancestor
// of t.
func (m *Manager) grantableLocked(l *lock, t tid.TID, mode Mode) bool {
	for _, h := range l.holders {
		if h.t == t {
			continue
		}
		if mode == Exclusive || h.mode == Exclusive {
			if !m.isAncestorLocked(h.t, t) {
				return false
			}
		}
	}
	return true
}

// isAncestorLocked reports whether a is a proper ancestor of t in the
// nested-transaction tree.
func (m *Manager) isAncestorLocked(a, t tid.TID) bool {
	for {
		p, ok := m.parent[t]
		if !ok {
			return false
		}
		if p == a {
			return true
		}
		t = p
	}
}

// grantLocked makes t a holder of key in mode, or raises the mode it
// already holds there; a transaction's first hold on key lists key
// under it.
func (m *Manager) grantLocked(l *lock, t tid.TID, key string, mode Mode) {
	if i := l.indexOf(t); i >= 0 {
		l.holders[i].mode = max(l.holders[i].mode, mode)
		return
	}
	l.holders = append(l.holders, holder{t: t, mode: mode})
	m.held[t] = append(m.held[t], key)
}

// promoteLocked grants queued waiters that have become eligible,
// FIFO, stopping at the first waiter that still conflicts so an
// exclusive waiter is not starved by later shared requests.
func (m *Manager) promoteLocked(l *lock, key string) {
	progressed := false
	for len(l.waiters) > 0 {
		w := l.waiters[0]
		if w.timeout {
			l.waiters = l.waiters[1:]
			continue
		}
		if !m.grantableLocked(l, w.t, w.mode) {
			break
		}
		m.grantLocked(l, w.t, key, w.mode)
		w.granted = true
		l.waiters = l.waiters[1:]
		progressed = true
	}
	if progressed {
		m.cond.Broadcast()
	}
}

func (m *Manager) removeWaiterLocked(l *lock, w *waiter) {
	for i, x := range l.waiters {
		if x == w {
			l.waiters = append(l.waiters[:i], l.waiters[i+1:]...)
			return
		}
	}
}
