package core

import (
	"camelot/internal/rt"
	"camelot/internal/tid"
	"camelot/internal/trace"
	"camelot/internal/wire"
)

// This file implements the §3.4 two-level concurrency structure: "the
// principal data structure is a hash table of family descriptors,
// each with an attached hash table of transaction descriptors",
// locked so that families proceed concurrently. Level one is a
// sharded family table whose shard locks are held only for the
// pointer lookup or insert; level two is the per-family mutex that
// serializes all protocol work on one family. Manager-wide state
// (id counters, pending acks, resolved outcomes, stats, the closed
// flag) lives behind separate component locks at the bottom of the
// hierarchy.
//
// Lock ordering (see DESIGN.md §3.4):
//
//	table shard  →  family  →  component (acks, resolved, stats, ids, life)
//
// A shard lock is never held while acquiring a family lock — lookups
// fetch the descriptor pointer and release the shard before locking
// the family — so the shard level serializes only table membership.
// Component locks are leaves: no code acquires any other lock while
// holding one, and in particular acquiring a family lock under the
// ack or resolved lock is forbidden (enforced by the lockorder
// analyzer in internal/lint).
//
// Forgetting a family would invert the order if it deleted the table
// entry while holding the family lock; instead forget marks the
// descriptor gone under the family lock and unlockFamily removes the
// table entry after releasing it. Every reader re-checks gone after
// acquiring a family lock and retries the lookup, so a stale pointer
// is never acted on.

// Lock classes: the ledger counter each class's waits are counted in.
const (
	lockClassFamily   = trace.FamilyLockWaits
	lockClassAcks     = trace.AckLockWaits
	lockClassResolved = trace.ResolvedLockWaits
	lockClassIDs      = trace.IDLockWaits
	lockClassLife     = trace.LifeLockWaits
)

// familyShards sizes the family table. A power of two so the shard
// index is a shift of the mixed key.
const familyShards = 16

// familyTable is the level-one hash table of family descriptors.
type familyTable struct {
	shards [familyShards]familyShard
}

type familyShard struct {
	mu       rt.Mutex
	families map[tid.FamilyID]*family
}

func newFamilyTable(r rt.Runtime) *familyTable {
	t := &familyTable{}
	for i := range t.shards {
		t.shards[i].mu = r.NewMutex()
		t.shards[i].families = make(map[tid.FamilyID]*family)
	}
	return t
}

// shard maps a family id to its shard. The multiplicative hash mixes
// the origin-site high bits and the counter low bits so families from
// one site still spread across shards.
func (t *familyTable) shard(id tid.FamilyID) *familyShard {
	return &t.shards[(uint64(id)*0x9E3779B97F4A7C15)>>(64-4)]
}

// get returns the descriptor mapped to id, or nil. The shard lock is
// released before returning; the caller must lock the family and
// re-check gone.
func (t *familyTable) get(id tid.FamilyID) *family {
	sh := t.shard(id)
	sh.mu.Lock()
	f := sh.families[id]
	sh.mu.Unlock()
	return f
}

// insert maps id to nf unless a descriptor is already present; it
// returns the winning descriptor and whether nf was installed.
func (t *familyTable) insert(id tid.FamilyID, nf *family) (*family, bool) {
	sh := t.shard(id)
	sh.mu.Lock()
	if f := sh.families[id]; f != nil {
		sh.mu.Unlock()
		return f, false
	}
	sh.families[id] = nf
	sh.mu.Unlock()
	return nf, true
}

// remove deletes id's entry if it still maps to f, so a forgotten
// descriptor never evicts a successor that reused the id.
func (t *familyTable) remove(id tid.FamilyID, f *family) {
	sh := t.shard(id)
	sh.mu.Lock()
	if sh.families[id] == f {
		delete(sh.families, id)
	}
	sh.mu.Unlock()
}

// snapshot copies the current membership of every shard.
func (t *familyTable) snapshot() map[tid.FamilyID]*family {
	out := make(map[tid.FamilyID]*family)
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		//lint:ordered map copy; insertion order is unobservable
		for id, f := range sh.families {
			out[id] = f
		}
		sh.mu.Unlock()
	}
	return out
}

// lockAttributed acquires mu, counting the acquisition as a lock wait
// of the given class if it had to block. TryLock is free on the fast
// path; in simulation it always succeeds (the cooperative kernel
// never parks a lock holder), so the counters double as a runtime
// assertion of the determinism invariant.
func (m *Manager) lockAttributed(mu rt.Mutex, class trace.Counter) {
	if mu.TryLock() {
		return
	}
	m.tr.Count(m.cfg.Site, class, 1)
	mu.Lock()
}

// newFamily builds a level-two descriptor. It is not yet in the
// table; callers publish it through the familyTable.
func (m *Manager) newFamily(id tid.FamilyID) *family {
	return &family{id: id, txns: make(map[tid.TID]*txn), mu: m.r.NewMutex()}
}

// lockFamily returns id's descriptor with its lock held, or nil if no
// live descriptor exists. A descriptor found gone is unlinked and the
// lookup retried, so callers never see a forgotten family.
func (m *Manager) lockFamily(id tid.FamilyID) *family {
	for {
		f := m.fams.get(id)
		if f == nil {
			return nil
		}
		m.lockAttributed(f.mu, lockClassFamily)
		if !f.gone {
			return f
		}
		f.mu.Unlock()
		m.fams.remove(id, f)
	}
}

// lockOrCreateFamily returns id's descriptor with its lock held,
// creating and publishing it if absent; created reports which.
func (m *Manager) lockOrCreateFamily(id tid.FamilyID) (f *family, created bool) {
	for {
		if f := m.fams.get(id); f != nil {
			m.lockAttributed(f.mu, lockClassFamily)
			if !f.gone {
				return f, false
			}
			f.mu.Unlock()
			m.fams.remove(id, f)
			continue
		}
		// Pre-lock before publishing so no other thread can observe
		// the descriptor half-initialized.
		nf := m.newFamily(id)
		nf.mu.Lock()
		if f, won := m.fams.insert(id, nf); !won {
			nf.mu.Unlock()
			m.lockAttributed(f.mu, lockClassFamily)
			if !f.gone {
				return f, false
			}
			f.mu.Unlock()
			m.fams.remove(id, f)
			continue
		}
		return nf, true
	}
}

// relockFamily re-acquires f's lock after a window in which it was
// released (a log force, a vote round). It returns false if the
// family was forgotten meanwhile — the old "m.families[f.id] != f"
// identity check. The lock is held on return either way, so callers
// release through unlockFamily on every path.
func (m *Manager) relockFamily(f *family) bool {
	m.lockAttributed(f.mu, lockClassFamily)
	return !f.gone
}

// unlockFamily releases f's lock and, if the family was forgotten
// while held, unlinks it from the table. The table removal happens
// after the unlock to preserve the table→family lock order.
func (m *Manager) unlockFamily(f *family) {
	gone := f.gone
	f.mu.Unlock()
	if gone {
		m.fams.remove(f.id, f)
	}
}

// forget marks the family descriptor dead — permitted only once every
// site has learned the outcome (§3.3 change 4 for non-blocking; after
// the last commit-ack for two-phase) — while retaining the final
// outcome in the resolved memory. The caller holds f's lock; the
// table entry disappears when that lock is released.
func (m *Manager) forget(f *family) {
	if f.timer != nil {
		f.timer.Stop()
	}
	switch f.ph {
	case phCommitted:
		m.setResolved(f.id, wire.OutcomeCommit)
	case phAborted:
		m.setResolved(f.id, wire.OutcomeAbort)
	}
	f.gone = true
}

// --- component-lock accessors ---

// isClosed reads the shutdown flag.
func (m *Manager) isClosed() bool {
	m.lockAttributed(m.lifeMu, lockClassLife)
	closed := m.closed
	m.lifeMu.Unlock()
	return closed
}

// setResolved records a finished family's outcome.
func (m *Manager) setResolved(id tid.FamilyID, out wire.Outcome) {
	m.lockAttributed(m.resMu, lockClassResolved)
	m.resolved.Set(id, out)
	m.resMu.Unlock()
}

// resolvedOutcome answers "what happened to this forgotten family?"
// from the in-memory resolved table, falling back to the checkpoint-
// image backstop for families truncated from it (see
// TruncateResolved). OutcomeUnknown means this site never resolved
// the family — under presumed abort the caller treats that as abort.
func (m *Manager) resolvedOutcome(id tid.FamilyID) wire.Outcome {
	m.lockAttributed(m.resMu, lockClassResolved)
	out := m.resolved.Get(id)
	m.resMu.Unlock()
	if out != wire.OutcomeUnknown {
		return out
	}
	if m.cfg.ResolvedBackstop != nil {
		return m.cfg.ResolvedBackstop(id)
	}
	return wire.OutcomeUnknown
}
