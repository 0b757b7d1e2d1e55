package core

import (
	"fmt"
	"slices"

	"camelot/internal/rt"
	"camelot/internal/tid"
	"camelot/internal/wire"
)

// Nested transactions (Moss model). Committing a child merges its
// locks, updates, and site set into the parent at every site the
// child touched; aborting a child undoes its subtree everywhere
// without disturbing the rest of the family. Only a top-level commit
// runs a distributed commitment protocol — child resolution messages
// are one-way notifications, retried implicitly by the fact that an
// unresolved child simply keeps its locks (a lost CHILD-COMMIT makes
// the parent wait, never misbehave).

// commitChild merges a committed nested transaction into its parent,
// the last of its chain.
func (m *Manager) commitChild(child tid.TID) (wire.Outcome, error) {
	done := rt.NewFuture[error](m.r)
	if !m.pool.Call(func() {
		f := m.lockFamily(child.Family)
		if f == nil {
			done.Set(fmt.Errorf("%w: %s", ErrUnknownTransaction, child))
			return
		}
		tx := f.txns[child]
		if tx == nil {
			m.unlockFamily(f)
			done.Set(fmt.Errorf("%w: %s", ErrUnknownTransaction, child))
			return
		}
		parent := tid.Parent(tx.anc)
		if ptx := f.txns[parent]; ptx != nil {
			ptx.sites = unionSites(ptx.sites, tx.sites...)
		}
		delete(f.txns, child)
		parts := m.participants(f)
		// Notify remote sites the child touched.
		for _, s := range tx.sites {
			m.send(s, &wire.Msg{Kind: wire.KChildCommit, TID: child, Parent: parent})
		}
		m.unlockFamily(f)
		for _, p := range parts {
			p.CommitChild(child)
		}
		done.Set(nil)
	}) {
		return wire.OutcomeUnknown, ErrClosed
	}
	err, ok := done.WaitTimeout(m.cfg.RetryInterval * 600)
	if !ok {
		return wire.OutcomeUnknown, ErrClosed
	}
	if err != nil {
		return wire.OutcomeAbort, err
	}
	return wire.OutcomeCommit, nil
}

// abortChild undoes a nested transaction and its descendants at every
// site it touched.
func (m *Manager) abortChild(child tid.TID) error {
	done := rt.NewFuture[error](m.r)
	if !m.pool.Call(func() {
		f := m.lockFamily(child.Family)
		if f == nil {
			done.Set(fmt.Errorf("%w: %s", ErrUnknownTransaction, child))
			return
		}
		if f.txns[child] == nil {
			m.unlockFamily(f)
			done.Set(fmt.Errorf("%w: %s", ErrUnknownTransaction, child))
			return
		}
		// Collect the sites of the whole doomed subtree known here.
		sites := dropSubtree(f, child)
		parts := m.participants(f)
		for _, s := range sites {
			m.send(s, &wire.Msg{Kind: wire.KChildAbort, TID: child})
		}
		m.unlockFamily(f)
		for _, p := range parts {
			p.AbortChild(child)
		}
		done.Set(nil)
	}) {
		return ErrClosed
	}
	err, ok := done.WaitTimeout(m.cfg.RetryInterval * 600)
	if !ok {
		return ErrClosed
	}
	return err
}

// dropSubtree forgets child and every transaction with child in its
// chain, and returns the union of the sites they touched (f's lock
// held).
func dropSubtree(f *family, child tid.TID) (sites []tid.SiteID) {
	//lint:ordered set removal and union; insertion order is unobservable
	for id, tx := range f.txns {
		if id == child || slices.Contains(tx.anc, child) {
			sites = unionSites(sites, tx.sites...)
			delete(f.txns, id)
		}
	}
	return sites
}

// onChildCommit applies a remote child's merge at this site: the
// parent, the last of the chain the child joined with, takes its
// place.
func (m *Manager) onChildCommit(msg *wire.Msg) {
	f := m.lockFamily(msg.TID.Family)
	if f == nil {
		return
	}
	if tx := f.txns[msg.TID]; tx != nil && len(tx.anc) > 0 {
		parent := tid.Parent(tx.anc)
		if ptx := f.txns[parent]; ptx == nil {
			f.txns[parent] = &txn{id: parent, anc: tx.anc[:len(tx.anc)-1], sites: tx.sites}
		} else {
			ptx.sites = unionSites(ptx.sites, tx.sites...)
		}
		delete(f.txns, msg.TID)
	}
	parts := m.participants(f)
	m.unlockFamily(f)
	for _, p := range parts {
		p.CommitChild(msg.TID)
	}
}

// onChildAbort undoes a remote child's subtree at this site.
func (m *Manager) onChildAbort(msg *wire.Msg) {
	f := m.lockFamily(msg.TID.Family)
	if f == nil {
		return
	}
	dropSubtree(f, msg.TID)
	parts := m.participants(f)
	m.unlockFamily(f)
	for _, p := range parts {
		p.AbortChild(msg.TID)
	}
}
