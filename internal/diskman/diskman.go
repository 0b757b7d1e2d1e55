// Package diskman implements the disk manager's durable-image side:
// checkpointing and log truncation. Camelot's disk manager is "a
// virtual-memory buffer manager that protects the disk copy of
// servers' data segments ... to implement the write-ahead log
// protocol. Also, it is the only process that can write into the
// log" (paper §2). In this reproduction the write-ahead discipline
// and group commit live in internal/wal; this package adds the disk
// copy of the data segments: a checkpoint has the recovery process
// redo the durable log onto the page image (recman.Analyze, the one
// place log and image combine), records the outcomes it absorbed, and
// truncates the log prefix those pages now cover. Recovery then
// starts from the page image instead of replaying history from the
// beginning of time.
//
// A checkpoint may only absorb resolved transactions: records of
// in-doubt transactions (prepared or intent-replicated, outcome
// unknown) and of coordinator decisions that still need re-driving
// pin the truncation point, exactly like an ARIES-style dirty/active
// transaction table.
package diskman

import (
	"fmt"
	"slices"
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
	// Outcomes are the resolved top-level outcomes the image absorbed,
	// by family — still needed to answer presumed-abort inquiries and
	// non-blocking status requests for old transactions.
	Outcomes recman.OutcomeTable
	// MaxLocalFamily is the highest locally allocated family counter
	// witnessed up to the checkpoint.
	MaxLocalFamily uint32
}

// clone deep-copies a snapshot.
func (s *Snapshot) clone() *Snapshot {
	out := &Snapshot{
		Data:           make(map[string]map[string][]byte, len(s.Data)),
		Outcomes:       s.Outcomes.Clone(),
		MaxLocalFamily: s.MaxLocalFamily,
	}
	for srv, kv := range s.Data {
		m := make(map[string][]byte, len(kv))
		for k, v := range kv {
			m[k] = slices.Clone(v)
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
func NewPageStore() *PageStore {
	return &PageStore{snap: &Snapshot{Data: make(map[string]map[string][]byte)}}
}

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
	return ps.snap.Outcomes.Get(f)
}

// Absorbed returns a copy of the outcomes the image has absorbed; the
// transaction manager may truncate these families from its in-memory
// resolved memory, re-answering later inquiries through Outcome.
func (ps *PageStore) Absorbed() recman.OutcomeTable {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.snap.Outcomes.Clone()
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
	// The whole log is redone onto the image (next.Data), not just the
	// prefix the cut drops: the prefix is strictly older than
	// everything retained, and records past the cut stay in the log and
	// are simply re-applied, idempotently, at recovery.
	next := ps.Read()
	a := recman.Analyze(site, next.Data, recs)

	// The truncation point: the prefix before the first record of any
	// unresolved family. Unresolved means no durable outcome yet —
	// still active, prepared, or intent-replicated — or a committed
	// coordinator decision whose END has not been logged. Truncating
	// an active family's updates would lose them if its commit record
	// arrives later.
	pinned := make(map[tid.FamilyID]bool)
	for _, r := range recs {
		if a.Outcomes.Get(r.TID.Family) == wire.OutcomeUnknown {
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

	next.Outcomes.Merge(&a.Outcomes)
	next.MaxLocalFamily = max(next.MaxLocalFamily, a.MaxLocalFamily)

	// Durability order: the image must be stable before the log
	// prefix disappears.
	ps.write(next)
	dropped, err := log.Truncate(cut)
	if err != nil {
		return 0, fmt.Errorf("diskman: truncate: %w", err)
	}
	return dropped, nil
}

// Recover analyzes the retained log tail over the page image: the
// analysis's Data is the image with the tail's committed effects
// redone onto it, and it carries the tail's outcomes, in-doubt and
// resume work. Its family floor covers the image's too.
func Recover(site tid.SiteID, log *wal.Log, ps *PageStore) (*recman.Analysis, error) {
	recs, err := log.Records()
	if err != nil {
		return nil, fmt.Errorf("diskman: recover read: %w", err)
	}
	base := ps.Read()
	a := recman.Analyze(site, base.Data, recs)
	a.MaxLocalFamily = max(a.MaxLocalFamily, base.MaxLocalFamily)
	return a, nil
}
