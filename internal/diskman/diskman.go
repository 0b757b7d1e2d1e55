// Package diskman implements the disk manager's durable-image side:
// checkpointing and log truncation. Camelot's disk manager is "a
// virtual-memory buffer manager that protects the disk copy of
// servers' data segments ... to implement the write-ahead log
// protocol. Also, it is the only process that can write into the
// log" (paper §2). In this reproduction the write-ahead discipline
// and group commit live in internal/wal; this package adds the disk
// copy of the data segments: a checkpoint materializes every durably
// *resolved* transaction's effects into the page store, records the
// outcomes it absorbed, and truncates the log prefix those pages now
// cover. Recovery then starts from the page image instead of
// replaying history from the beginning of time.
//
// A checkpoint may only absorb resolved transactions: records of
// in-doubt transactions (prepared or intent-replicated, outcome
// unknown) and of coordinator decisions that still need re-driving
// pin the truncation point, exactly like an ARIES-style dirty/active
// transaction table.
package diskman

import (
	"fmt"
	"sync"

	"camelot/internal/recman"
	"camelot/internal/tid"
	"camelot/internal/wal"
	"camelot/internal/wire"
)

// Snapshot is the durable disk image of one site: the committed data
// segments of its servers plus the protocol facts that truncated log
// records used to carry.
type Snapshot struct {
	// Data is the committed image, per server per key.
	Data map[string]map[string][]byte
	// Committed and Aborted are the resolved top-level outcomes the
	// image absorbed — still needed to answer presumed-abort
	// inquiries and non-blocking status requests for old
	// transactions.
	Committed []tid.TID
	Aborted   []tid.TID
	// MaxLocalFamily is the highest locally allocated family counter
	// witnessed up to the checkpoint.
	MaxLocalFamily uint32
	// Records is how many log records checkpoints have truncated
	// behind the image, cumulative.
	Records int
}

func emptySnapshot() *Snapshot {
	return &Snapshot{Data: make(map[string]map[string][]byte)}
}

// clone deep-copies a snapshot.
func (s *Snapshot) clone() *Snapshot {
	out := &Snapshot{
		Committed:      append([]tid.TID(nil), s.Committed...),
		Aborted:        append([]tid.TID(nil), s.Aborted...),
		MaxLocalFamily: s.MaxLocalFamily,
		Records:        s.Records,
		Data:           make(map[string]map[string][]byte, len(s.Data)),
	}
	for srv, kv := range s.Data {
		m := make(map[string][]byte, len(kv))
		for k, v := range kv {
			cp := make([]byte, len(v))
			copy(cp, v)
			m[k] = cp
		}
		out.Data[srv] = m
	}
	return out
}

// PageStore is the stable home of a site's Snapshot. Like
// wal.MemStore it survives simulated crashes because the experiment
// keeps it while the site is rebuilt.
type PageStore struct {
	mu   sync.Mutex
	snap *Snapshot
}

// NewPageStore returns an empty store.
func NewPageStore() *PageStore { return &PageStore{snap: emptySnapshot()} }

// Read returns a copy of the current image.
func (ps *PageStore) Read() *Snapshot {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.snap.clone()
}

// write atomically replaces the image.
func (ps *PageStore) write(s *Snapshot) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.snap = s.clone()
}

// truncated records that n more log records left the log behind the
// current image.
func (ps *PageStore) truncated(n int) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.snap.Records += n
}

// Outcome answers, from the durable image alone, how a family the
// checkpoint absorbed ended. It backs the transaction manager's
// resolved-outcome memory after TruncateResolved has dropped the
// family from RAM: presumed-abort inquiries and non-blocking status
// requests for arbitrarily old transactions still get the true
// answer. OutcomeUnknown means the image never absorbed the family.
// Safe to call concurrently from any thread.
func (ps *PageStore) Outcome(f tid.FamilyID) wire.Outcome {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for _, t := range ps.snap.Committed {
		if t.Family == f {
			return wire.OutcomeCommit
		}
	}
	for _, t := range ps.snap.Aborted {
		if t.Family == f {
			return wire.OutcomeAbort
		}
	}
	return wire.OutcomeUnknown
}

// AbsorbedFamilies lists every family whose outcome the image has
// absorbed; the transaction manager may truncate these from its
// in-memory resolved map, re-answering later inquiries through
// Outcome.
func (ps *PageStore) AbsorbedFamilies() []tid.FamilyID {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	seen := make(map[tid.FamilyID]bool)
	var out []tid.FamilyID
	for _, t := range ps.snap.Committed {
		if !seen[t.Family] {
			seen[t.Family] = true
			out = append(out, t.Family)
		}
	}
	for _, t := range ps.snap.Aborted {
		if !seen[t.Family] {
			seen[t.Family] = true
			out = append(out, t.Family)
		}
	}
	return out
}

// Checkpoint materializes the durable log into ps and truncates the
// absorbed prefix from log. It returns how many records were
// truncated. Records belonging to unresolved transactions — and
// everything after the first of them — are retained, and so is the
// head of a block the cut lands inside: the log drops whole blocks
// (device writes) only, and recovery re-applies the overlap
// idempotently.
func Checkpoint(site tid.SiteID, log *wal.Log, ps *PageStore) (int, error) {
	recs, err := log.Records()
	if err != nil {
		return 0, fmt.Errorf("diskman: checkpoint read: %w", err)
	}
	base := ps.Read()
	a := recman.Analyze(site, recs)

	// The truncation point: the prefix before the first record of any
	// unresolved family. Unresolved means no durable outcome yet —
	// still active, prepared, or intent-replicated — or a committed
	// coordinator decision whose END has not been logged. Truncating
	// an active family's updates would lose them if its commit record
	// arrives later.
	resolved := func(f tid.FamilyID) bool {
		top := tid.Top(f)
		return a.Committed[top] || a.Aborted[top]
	}
	pinned := make(map[tid.FamilyID]bool)
	for _, r := range recs {
		if !resolved(r.TID.Family) {
			pinned[r.TID.Family] = true
		}
	}
	for _, r := range a.Resume {
		pinned[r.TID.Family] = true
	}
	cut := len(recs)
	for i, r := range recs {
		if pinned[r.TID.Family] {
			cut = i
			break
		}
	}

	// Fold the resolved prefix into the image. The prefix is strictly
	// older than everything retained, so later recovery replay of the
	// retained tail lands on top of it in the right order. Rather
	// than re-deriving which updates the prefix contains, fold the
	// full analysis image — records past the cut stay in the log and
	// will simply be re-applied idempotently at recovery.
	next := base.clone()
	for srv, dead := range a.Deleted {
		if m := next.Data[srv]; m != nil {
			for k := range dead {
				delete(m, k)
			}
		}
	}
	for srv, kv := range a.Data {
		m := next.Data[srv]
		if m == nil {
			m = make(map[string][]byte)
			next.Data[srv] = m
		}
		for k, v := range kv {
			cp := make([]byte, len(v))
			copy(cp, v)
			m[k] = cp
		}
	}
	for t := range a.Committed {
		next.Committed = append(next.Committed, t)
	}
	for t := range a.Aborted {
		if t.IsTop() {
			next.Aborted = append(next.Aborted, t)
		}
	}
	if a.MaxLocalFamily > next.MaxLocalFamily {
		next.MaxLocalFamily = a.MaxLocalFamily
	}

	// Durability order: the image must be stable before the log
	// prefix disappears.
	ps.write(next)
	dropped, err := log.Truncate(cut)
	if err != nil {
		return 0, fmt.Errorf("diskman: truncate: %w", err)
	}
	ps.truncated(dropped)
	return dropped, nil
}

// Recover combines the page image with an analysis of the retained
// log tail: the returned analysis carries the tail's in-doubt and
// resume work, and the returned data is the image overlaid with the
// tail's committed effects.
func Recover(site tid.SiteID, log *wal.Log, ps *PageStore) (*recman.Analysis, map[string]map[string][]byte, error) {
	recs, err := log.Records()
	if err != nil {
		return nil, nil, fmt.Errorf("diskman: recover read: %w", err)
	}
	base := ps.Read()
	a := recman.Analyze(site, recs)
	data := base.Data
	for srv, dead := range a.Deleted {
		if m := data[srv]; m != nil {
			for k := range dead {
				delete(m, k)
			}
		}
	}
	for srv, kv := range a.Data {
		m := data[srv]
		if m == nil {
			m = make(map[string][]byte)
			data[srv] = m
		}
		for k, v := range kv {
			m[k] = v
		}
	}
	if base.MaxLocalFamily > a.MaxLocalFamily {
		a.MaxLocalFamily = base.MaxLocalFamily
	}
	return a, data, nil
}
