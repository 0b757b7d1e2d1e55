package lockmgr

import (
	"time"

	"camelot/internal/rt"
	"camelot/internal/tid"
)

// refManager is the lock table as it was before the holders went
// inline: a map of holders per lock and a set of keys per transaction.
// It is kept, unchanged but for its names, as the reference model the
// differential tests hold Manager to: both must grant, refuse, queue
// and hand over every request alike.
type refManager struct {
	r    rt.Runtime
	mu   rt.Mutex
	cond rt.Cond

	locks  map[string]*refLock
	parent map[tid.TID]tid.TID // nested-transaction tree
	held   map[tid.TID]map[string]bool

	waits     int
	waitTotal time.Duration
}

type refLock struct {
	holders map[tid.TID]Mode
	// waiters is FIFO; each entry is re-examined on every release or
	// inheritance event.
	waiters []*refWaiter
}

type refWaiter struct {
	t       tid.TID
	mode    Mode
	granted bool
	timeout bool
}

// newRef returns an empty reference manager.
func newRef(r rt.Runtime) *refManager {
	m := &refManager{
		r:      r,
		locks:  make(map[string]*refLock),
		parent: make(map[tid.TID]tid.TID),
		held:   make(map[tid.TID]map[string]bool),
	}
	m.mu = r.NewMutex()
	m.cond = r.NewCond(m.mu)
	return m
}

// SetParent records that child is a nested transaction of parent, for
// ancestry checks and inheritance.
func (m *refManager) SetParent(child, parent tid.TID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.parent[child] = parent
}

// Acquire obtains key in mode for t, blocking up to timeout. Lock
// upgrades (S held, X requested) are granted in place when
// permissible. A zero timeout never blocks.
func (m *refManager) Acquire(t tid.TID, key string, mode Mode, timeout time.Duration) error {
	m.mu.Lock()
	defer m.mu.Unlock()

	l := m.locks[key]
	if l == nil {
		l = &refLock{holders: make(map[tid.TID]Mode)}
		m.locks[key] = l
	}
	// A new request may be granted immediately only if nothing is
	// queued ahead of it, so a waiting exclusive request is not
	// starved by a stream of compatible shared requests. Requests
	// from a transaction that already holds the lock (re-entry or
	// upgrade) jump the queue, the standard escape from the
	// upgrade-behind-own-waiter deadlock.
	_, alreadyHolds := l.holders[t]
	if (len(l.waiters) == 0 || alreadyHolds) && m.grantableLocked(l, t, mode) {
		m.grantLocked(l, t, key, mode)
		return nil
	}
	if timeout <= 0 {
		return ErrTimeout
	}

	w := &refWaiter{t: t, mode: mode}
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
func (m *refManager) Release(t tid.TID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for key := range m.held[t] {
		if l := m.locks[key]; l != nil {
			delete(l.holders, t)
			m.promoteLocked(l, key)
			if len(l.holders) == 0 && len(l.waiters) == 0 {
				delete(m.locks, key)
			}
		}
	}
	delete(m.held, t)
	delete(m.parent, t)
}

// OnChildCommit transfers every lock held by child to parent, the
// Moss inheritance rule for a committing nested transaction.
func (m *refManager) OnChildCommit(child, parent tid.TID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for key := range m.held[child] {
		l := m.locks[key]
		if l == nil {
			continue
		}
		childMode := l.holders[child]
		delete(l.holders, child)
		if cur, ok := l.holders[parent]; !ok || childMode > cur {
			l.holders[parent] = childMode
		}
		if m.held[parent] == nil {
			m.held[parent] = make(map[string]bool)
		}
		m.held[parent][key] = true
		m.promoteLocked(l, key)
	}
	delete(m.held, child)
	delete(m.parent, child)
}

// HoldsAny reports whether t currently holds any lock.
func (m *refManager) HoldsAny(t tid.TID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.held[t]) > 0
}

// Holds reports t's mode on key, if any.
func (m *refManager) Holds(t tid.TID, key string) (Mode, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	l := m.locks[key]
	if l == nil {
		return 0, false
	}
	mode, ok := l.holders[t]
	return mode, ok
}

// Waits reports how many lock requests have blocked and their total
// wait time — the lock-contention measure of the paper's §4.2
// analysis.
func (m *refManager) Waits() (int, time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.waits, m.waitTotal
}

// grantableLocked reports whether t may take key in mode right now:
// every conflicting holder must be t itself (upgrade) or an ancestor
// of t.
func (m *refManager) grantableLocked(l *refLock, t tid.TID, mode Mode) bool {
	for h, hm := range l.holders {
		if h == t {
			continue
		}
		if mode == Exclusive || hm == Exclusive {
			if !m.isAncestorLocked(h, t) {
				return false
			}
		}
	}
	return true
}

// isAncestorLocked reports whether a is a proper ancestor of t in the
// nested-transaction tree.
func (m *refManager) isAncestorLocked(a, t tid.TID) bool {
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

func (m *refManager) grantLocked(l *refLock, t tid.TID, key string, mode Mode) {
	if cur, ok := l.holders[t]; !ok || mode > cur {
		l.holders[t] = mode
	}
	if m.held[t] == nil {
		m.held[t] = make(map[string]bool)
	}
	m.held[t][key] = true
}

// promoteLocked grants queued waiters that have become eligible,
// FIFO, stopping at the first waiter that still conflicts so an
// exclusive waiter is not starved by later shared requests.
func (m *refManager) promoteLocked(l *refLock, key string) {
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

func (m *refManager) removeWaiterLocked(l *refLock, w *refWaiter) {
	for i, x := range l.waiters {
		if x == w {
			l.waiters = append(l.waiters[:i], l.waiters[i+1:]...)
			return
		}
	}
}
